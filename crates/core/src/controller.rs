//! The Controller: instruction reception, scoreboard, dispatch, and retire
//! (paper Section 3.5).
//!
//! Instructions dispatch in order, but only when none of their *destination*
//! tiles are in use by an in-flight instruction (WAW/WAR without renaming).
//! Source tiles may still be in flight as another instruction's destination:
//! per-element finish bits let consumers chase producers element by element,
//! which is how an `ILD` overlaps the `SLD` that fetches its index tile.

use std::collections::VecDeque;

use dx100_common::flags::FlagId;

use crate::isa::{Instruction, TileList};

/// An instruction with its scalar register operands resolved at reception
/// time (the register file is read when the instruction arrives, so programs
/// may reuse registers for later instructions).
#[derive(Debug, Clone)]
pub struct DispatchedInstr {
    /// Monotonic handle identifying this instruction.
    pub handle: u64,
    /// The decoded instruction.
    pub instr: Instruction,
    /// Resolved `rs1` (start / budget / scalar), per-instruction meaning.
    pub r1: u64,
    /// Resolved `rs2` (stride).
    pub r2: u64,
    /// Resolved `rs3` (count).
    pub r3: u64,
    /// Flag to set when this instruction retires (the `wait` API).
    pub flag: Option<FlagId>,
}

/// Which functional unit executes an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Stream Access unit (SLD/SST).
    Stream,
    /// Indirect Access unit (ILD/IST/IRMW).
    Indirect,
    /// ALU unit (ALUV/ALUS).
    Alu,
    /// Range Fuser (RNG).
    Range,
}

/// Unit selection for an instruction.
pub fn unit_of(instr: &Instruction) -> Unit {
    match instr {
        Instruction::Sld { .. } | Instruction::Sst { .. } => Unit::Stream,
        Instruction::Ild { .. } | Instruction::Ist { .. } | Instruction::Irmw { .. } => {
            Unit::Indirect
        }
        Instruction::Aluv { .. } | Instruction::Alus { .. } => Unit::Alu,
        Instruction::Rng { .. } => Unit::Range,
    }
}

#[derive(Clone, Debug)]
struct Inflight {
    handle: u64,
    sources: TileList,
    dests: TileList,
    flag: Option<FlagId>,
}

/// The dispatch queue and scoreboard.
#[derive(Clone, Debug, Default)]
pub struct Controller {
    queue: VecDeque<DispatchedInstr>,
    inflight: Vec<Inflight>,
}

impl Controller {
    /// Creates an empty controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts a received instruction into the dispatch queue.
    pub fn receive(&mut self, d: DispatchedInstr) {
        self.queue.push_back(d);
    }

    /// Whether an instruction's destination tiles are free of hazards.
    fn can_dispatch(&self, instr: &Instruction) -> bool {
        let dests = instr.dest_tiles();
        dests.iter().all(|d| {
            self.inflight
                .iter()
                .all(|f| !f.dests.contains(d) && !f.sources.contains(d))
        })
    }

    /// Whether the queue head could dispatch right now (non-mutating probe
    /// used by the engine's quiescence check).
    pub fn dispatchable(&self) -> bool {
        self.queue
            .front()
            .is_some_and(|head| self.can_dispatch(&head.instr))
    }

    /// Dispatches the queue head if the scoreboard allows. Returns the
    /// instruction to hand to its unit.
    pub fn try_dispatch(&mut self) -> Option<DispatchedInstr> {
        let head = self.queue.front()?;
        if !self.can_dispatch(&head.instr) {
            return None;
        }
        let d = self.queue.pop_front().unwrap();
        self.inflight.push(Inflight {
            handle: d.handle,
            sources: d.instr.source_tiles(),
            dests: d.instr.dest_tiles(),
            flag: d.flag,
        });
        Some(d)
    }

    /// Retires `handle`: releases its scoreboard entry. Returns the
    /// instruction's destination tiles and completion flag.
    ///
    /// # Panics
    /// Panics if the handle is not in flight.
    pub fn retire(&mut self, handle: u64) -> (TileList, Option<FlagId>) {
        let idx = self
            .inflight
            .iter()
            .position(|f| f.handle == handle)
            .expect("retiring unknown instruction");
        let f = self.inflight.swap_remove(idx);
        (f.dests, f.flag)
    }

    /// Queued (not yet dispatched) instructions.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Dispatched, unretired instructions.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::TileId;
    use dx100_common::DType;

    fn d(handle: u64, instr: Instruction) -> DispatchedInstr {
        DispatchedInstr {
            handle,
            instr,
            r1: 0,
            r2: 0,
            r3: 0,
            flag: None,
        }
    }

    const T0: TileId = TileId::new(0);
    const T1: TileId = TileId::new(1);
    const T2: TileId = TileId::new(2);

    #[test]
    fn chaining_allowed_waw_blocked() {
        let mut c = Controller::new();
        // ILD t1 <- [t0]; then ALU-free consumer writing t2 from t1 is
        // allowed to dispatch (t1 is only its *source*).
        c.receive(d(1, Instruction::ild(DType::U32, 0x1000, T1, T0)));
        c.receive(d(
            2,
            Instruction::Aluv {
                dtype: DType::U32,
                op: dx100_common::AluOp::Add,
                td: T2,
                ts1: T1,
                ts2: T1,
                tc: None,
            },
        ));
        // A third instruction overwriting t1 must wait for instruction 1
        // (WAW) and 2 (WAR).
        c.receive(d(3, Instruction::ild(DType::U32, 0x1000, T1, T2)));
        assert!(c.try_dispatch().is_some()); // 1 dispatches
        assert!(c.try_dispatch().is_some()); // 2 chains
        assert!(c.try_dispatch().is_none(), "WAW/WAR on t1 must block");
        c.retire(1);
        assert!(c.try_dispatch().is_none(), "instr 2 still reads t1");
        c.retire(2);
        assert!(c.try_dispatch().is_some());
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn in_order_dispatch() {
        let mut c = Controller::new();
        c.receive(d(1, Instruction::ild(DType::U32, 0, T1, T0)));
        c.receive(d(2, Instruction::ild(DType::U32, 0, T2, T0)));
        // Block the head by a conflicting in-flight instruction.
        c.receive(d(3, Instruction::ild(DType::U32, 0, T1, T2)));
        let first = c.try_dispatch().unwrap();
        assert_eq!(first.handle, 1);
        let second = c.try_dispatch().unwrap();
        assert_eq!(second.handle, 2);
        // Head (3) conflicts on t1 → nothing dispatches, even though no
        // later instruction exists.
        assert!(c.try_dispatch().is_none());
        assert_eq!(c.queued(), 1);
    }

    #[test]
    fn retire_returns_flag_and_dests() {
        let mut c = Controller::new();
        let mut instr = d(9, Instruction::ild(DType::U32, 0, T1, T0));
        instr.flag = Some(dx100_common::flags::FlagId(5));
        c.receive(instr);
        c.try_dispatch().unwrap();
        let (dests, flag) = c.retire(9);
        assert_eq!(dests[..], [T1]);
        assert_eq!(flag, Some(dx100_common::flags::FlagId(5)));
        assert!(c.is_idle());
    }

    #[test]
    fn unit_routing() {
        assert_eq!(
            unit_of(&Instruction::ild(DType::U32, 0, T1, T0)),
            Unit::Indirect
        );
        assert_eq!(
            unit_of(&Instruction::sld(
                DType::U32,
                0,
                T1,
                crate::isa::RegId::new(0),
                crate::isa::RegId::new(1),
                crate::isa::RegId::new(2)
            )),
            Unit::Stream
        );
        assert_eq!(
            unit_of(&Instruction::Rng {
                td1: T1,
                td2: T2,
                ts1: T0,
                ts2: T0,
                rs1: crate::isa::RegId::new(0),
                tc: None
            }),
            Unit::Range
        );
    }
}
