//! Simulator state checkpointing.
//!
//! A [`Checkpoint`] snapshot captures everything a timing component needs to
//! resume exactly where it left off: restoring a saved state into a freshly
//! constructed component and continuing must produce the same statistics and
//! trace events as a run that was never interrupted, so one warmed-up
//! state can fork several simulations (property tests in each component
//! crate enforce it).
//!
//! States must be [`Send`] so one saved checkpoint can be restored
//! concurrently on several threads; `restore` takes the state by
//! reference for the same reason.

/// Why a component could not be checkpointed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The component holds a lazy op generator that does not implement
    /// cloning (see `OpStream::try_clone` in `dx100-cpu`).
    UnclonableStream,
    /// Anything else, with a human-readable reason.
    Other(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UnclonableStream => {
                write!(f, "component holds an op stream that cannot be cloned")
            }
            CheckpointError::Other(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Snapshot/restore of a component's complete simulation state.
pub trait Checkpoint {
    /// The saved state. `Send + Sync` so one checkpoint behind an `Arc`
    /// can be restored concurrently from several threads; `'static` so
    /// it outlives the component it came from.
    type State: Send + Sync + 'static;

    /// Captures the current state.
    fn save(&self) -> Result<Self::State, CheckpointError>;

    /// Overwrites this component's state with `state`. The component must
    /// have been built with an equivalent configuration.
    fn restore(&mut self, state: &Self::State);
}
