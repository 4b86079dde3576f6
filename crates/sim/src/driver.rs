//! The argument of [`System::run`](crate::System::run), kept while callers
//! outside the workspace still pass it. A workload's software is a
//! straight-line program over [`System`](crate::System): it pushes work,
//! waits at barriers with [`System::run_until`](crate::System::run_until)
//! and ends with [`System::finish`](crate::System::finish).

/// The only argument [`System::run`](crate::System::run) takes; it carries
/// nothing.
#[derive(Debug, Default)]
pub struct NullDriver;
