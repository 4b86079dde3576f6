//! The functional execution model: instructions execute immediately and
//! completely, against a [`MemoryImage`].
//!
//! This is the reproduction of the paper's functional simulator ("A
//! functional simulator for DX100 APIs was developed to ensure the
//! correctness of the implementations before simulation", Section 5). Every
//! workload's DX100 path is validated against it, and the timed
//! [`crate::engine::Dx100Engine`] is property-tested to produce bit-identical
//! results.

use std::fmt;

use dx100_common::{value, Cycle};
#[cfg(test)]
use dx100_common::{AluOp, DType};

use crate::config::Dx100Config;
use crate::isa::{IllegalInstruction, Instruction, RegId, TileId};
use crate::memimg::MemoryImage;
use crate::regfile::RegFile;
use crate::scratchpad::{Scratchpad, Tile};

/// Errors surfaced while executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The instruction violates an ISA rule.
    Illegal(IllegalInstruction),
    /// A source tile's length has not been announced by any producer.
    SourceLenUnknown(TileId),
    /// The instruction would produce more elements than a tile holds.
    TileOverflow {
        /// Tile that would overflow.
        tile: TileId,
        /// Elements the instruction tried to produce.
        needed: usize,
        /// Tile capacity.
        capacity: usize,
    },
    /// Source tiles of a two-source operation have mismatched lengths.
    LengthMismatch(TileId, TileId),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Illegal(e) => write!(f, "illegal instruction: {e}"),
            ExecError::SourceLenUnknown(t) => write!(f, "source tile {t} has no announced length"),
            ExecError::TileOverflow {
                tile,
                needed,
                capacity,
            } => write!(
                f,
                "tile {tile} overflow: needs {needed}, capacity {capacity}"
            ),
            ExecError::LengthMismatch(a, b) => write!(f, "length mismatch between {a} and {b}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<IllegalInstruction> for ExecError {
    fn from(e: IllegalInstruction) -> Self {
        ExecError::Illegal(e)
    }
}

/// The functional DX100: a scratchpad and register file executing
/// instructions synchronously.
#[derive(Clone, Debug)]
pub struct FunctionalDx100 {
    config: Dx100Config,
    spd: Scratchpad,
    regs: RegFile,
    instructions_executed: u64,
    elements_processed: u64,
}

impl FunctionalDx100 {
    /// Creates a functional instance with `config`'s scratchpad geometry.
    pub fn new(config: Dx100Config) -> Self {
        FunctionalDx100 {
            spd: Scratchpad::new(config.num_tiles, config.tile_elems),
            regs: RegFile::new(),
            instructions_executed: 0,
            elements_processed: 0,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Dx100Config {
        &self.config
    }

    /// Shared view of a tile.
    pub fn tile(&self, id: TileId) -> &Tile {
        self.spd.tile(id)
    }

    /// Writes a whole tile from the host side (core → scratchpad stores).
    pub fn write_tile(&mut self, id: TileId, values: &[u64]) {
        self.spd.write_tile(id, values);
    }

    /// Writes a scalar register (core → register-file store).
    pub fn write_reg(&mut self, id: RegId, v: u64) {
        self.regs.write(id, v);
    }

    /// Instructions executed so far.
    pub fn instructions_executed(&self) -> u64 {
        self.instructions_executed
    }

    /// Total elements processed across all instructions (offload volume).
    pub fn elements_processed(&self) -> u64 {
        self.elements_processed
    }

    /// Executes one instruction to completion.
    ///
    /// # Errors
    /// Returns an [`ExecError`] on ISA violations, unannounced source
    /// lengths, or tile overflow. On error the machine state is unchanged
    /// except possibly the destination tile's not-ready mark.
    pub fn execute(&mut self, instr: &Instruction, mem: &mut MemoryImage) -> Result<(), ExecError> {
        instr.validate()?;
        self.instructions_executed += 1;
        let processed = execute_on(&mut self.spd, &self.regs, instr, mem)?;
        self.elements_processed += processed as u64;
        Ok(())
    }

    /// Executes a whole program in order.
    ///
    /// # Errors
    /// Stops at and returns the first failing instruction's error.
    pub fn run(&mut self, program: &[Instruction], mem: &mut MemoryImage) -> Result<(), ExecError> {
        for instr in program {
            self.execute(instr, mem)?;
        }
        Ok(())
    }
}

/// Reads the per-lane condition for index `i` (true = execute).
fn cond_at(spd: &Scratchpad, tc: Option<TileId>, i: usize) -> bool {
    match tc {
        None => true,
        Some(t) => spd.tile(t).get(i) != 0,
    }
}

/// Shared instruction semantics, used verbatim by the functional model and
/// as the reference the timed engine must reproduce element-wise.
///
/// Returns the number of elements processed.
pub(crate) fn execute_on(
    spd: &mut Scratchpad,
    regs: &RegFile,
    instr: &Instruction,
    mem: &mut MemoryImage,
) -> Result<usize, ExecError> {
    let src_len = |spd: &Scratchpad, t: TileId| -> Result<usize, ExecError> {
        spd.tile(t).len().ok_or(ExecError::SourceLenUnknown(t))
    };
    match *instr {
        Instruction::Sld {
            dtype,
            base,
            td,
            rs1,
            rs2,
            rs3,
            tc,
        } => {
            let (start, stride, count) = (regs.read(rs1), regs.read(rs2), regs.read(rs3) as usize);
            check_capacity(spd, td, count)?;
            spd.begin_produce(td, count);
            for i in 0..count {
                if cond_at(spd, tc, i) {
                    let idx = start + i as u64 * stride;
                    let v = mem.read(dtype, base + idx * dtype.size_bytes());
                    spd.produce(td, i, v);
                } else {
                    spd.skip(td, i);
                }
            }
            spd.set_ready(td);
            Ok(count)
        }
        Instruction::Sst {
            dtype,
            base,
            ts,
            rs1,
            rs2,
            rs3,
            tc,
        } => {
            let (start, stride, count) = (regs.read(rs1), regs.read(rs2), regs.read(rs3) as usize);
            for i in 0..count {
                if cond_at(spd, tc, i) {
                    let idx = start + i as u64 * stride;
                    let v = value::truncate(dtype, spd.tile(ts).get(i));
                    mem.write(dtype, base + idx * dtype.size_bytes(), v);
                }
            }
            Ok(count)
        }
        Instruction::Ild {
            dtype,
            base,
            td,
            ts1,
            tc,
        } => {
            let n = src_len(spd, ts1)?;
            check_capacity(spd, td, n)?;
            spd.begin_produce(td, n);
            for i in 0..n {
                if cond_at(spd, tc, i) {
                    let idx = spd.tile(ts1).get(i);
                    let v = mem.read(dtype, base + idx * dtype.size_bytes());
                    spd.produce(td, i, v);
                } else {
                    spd.skip(td, i);
                }
            }
            spd.set_ready(td);
            Ok(n)
        }
        Instruction::Ist {
            dtype,
            base,
            ts1,
            ts2,
            tc,
        } => {
            let n = src_len(spd, ts1)?;
            for i in 0..n {
                if cond_at(spd, tc, i) {
                    let idx = spd.tile(ts1).get(i);
                    let v = value::truncate(dtype, spd.tile(ts2).get(i));
                    mem.write(dtype, base + idx * dtype.size_bytes(), v);
                }
            }
            Ok(n)
        }
        Instruction::Irmw {
            dtype,
            op,
            base,
            ts1,
            ts2,
            tc,
        } => {
            let n = src_len(spd, ts1)?;
            for i in 0..n {
                if cond_at(spd, tc, i) {
                    let idx = spd.tile(ts1).get(i);
                    let addr = base + idx * dtype.size_bytes();
                    let old = mem.read(dtype, addr);
                    let new = value::alu(op, dtype, old, spd.tile(ts2).get(i));
                    mem.write(dtype, addr, new);
                }
            }
            Ok(n)
        }
        Instruction::Aluv {
            dtype,
            op,
            td,
            ts1,
            ts2,
            tc,
        } => {
            let n = src_len(spd, ts1)?;
            let n2 = src_len(spd, ts2)?;
            if n != n2 {
                return Err(ExecError::LengthMismatch(ts1, ts2));
            }
            check_capacity(spd, td, n)?;
            spd.begin_produce(td, n);
            for i in 0..n {
                if cond_at(spd, tc, i) {
                    let v = value::alu(op, dtype, spd.tile(ts1).get(i), spd.tile(ts2).get(i));
                    spd.produce(td, i, v);
                } else {
                    spd.skip(td, i);
                }
            }
            spd.set_ready(td);
            Ok(n)
        }
        Instruction::Alus {
            dtype,
            op,
            td,
            ts,
            rs,
            tc,
        } => {
            let n = src_len(spd, ts)?;
            check_capacity(spd, td, n)?;
            let scalar = regs.read(rs);
            spd.begin_produce(td, n);
            for i in 0..n {
                if cond_at(spd, tc, i) {
                    let v = value::alu(op, dtype, spd.tile(ts).get(i), scalar);
                    spd.produce(td, i, v);
                } else {
                    spd.skip(td, i);
                }
            }
            spd.set_ready(td);
            Ok(n)
        }
        Instruction::Rng {
            td1,
            td2,
            ts1,
            ts2,
            rs1,
            tc,
        } => {
            let n = src_len(spd, ts1)?;
            let n2 = src_len(spd, ts2)?;
            if n != n2 {
                return Err(ExecError::LengthMismatch(ts1, ts2));
            }
            let budget = (regs.read(rs1) as usize).min(spd.capacity());
            spd.begin_produce_unsized(td1);
            spd.begin_produce_unsized(td2);
            let mut out = 0usize;
            for k in 0..n {
                if !cond_at(spd, tc, k) {
                    continue;
                }
                let lo = spd.tile(ts1).get(k);
                let hi = spd.tile(ts2).get(k);
                let mut j = lo;
                while j < hi {
                    if out >= budget {
                        return Err(ExecError::TileOverflow {
                            tile: td1,
                            needed: out + 1,
                            capacity: budget,
                        });
                    }
                    spd.produce(td1, out, k as u64);
                    spd.produce(td2, out, j);
                    out += 1;
                    j += 1;
                }
            }
            spd.set_len(td1, out);
            spd.set_len(td2, out);
            spd.set_ready(td1);
            spd.set_ready(td2);
            Ok(out)
        }
    }
}

fn check_capacity(spd: &Scratchpad, tile: TileId, needed: usize) -> Result<(), ExecError> {
    if needed > spd.capacity() {
        Err(ExecError::TileOverflow {
            tile,
            needed,
            capacity: spd.capacity(),
        })
    } else {
        Ok(())
    }
}

/// A retired-instruction notification shared with the timed engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Handle returned by `push_instruction`.
    pub handle: u64,
    /// Completion cycle (timed model) or 0 (functional).
    pub at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_common::value::{from_f32, to_f32};

    fn setup() -> (FunctionalDx100, MemoryImage) {
        let mut cfg = Dx100Config::paper();
        cfg.tile_elems = 64;
        (FunctionalDx100::new(cfg), MemoryImage::new())
    }

    const T0: TileId = TileId::new(0);
    const T1: TileId = TileId::new(1);
    const T2: TileId = TileId::new(2);
    const T3: TileId = TileId::new(3);
    const R0: RegId = RegId::new(0);
    const R1: RegId = RegId::new(1);
    const R2: RegId = RegId::new(2);

    #[test]
    fn gather_matches_reference() {
        let (mut dx, mut mem) = setup();
        let a = mem.alloc("A", DType::U32, 32);
        let b = mem.alloc("B", DType::U32, 16);
        for i in 0..32 {
            mem.write_elem(a, i, 1000 + i);
        }
        let idx: Vec<u64> = (0..16).map(|i| (i * 7) % 32).collect();
        for (i, v) in idx.iter().enumerate() {
            mem.write_elem(b, i as u64, *v);
        }
        dx.write_reg(R0, 0);
        dx.write_reg(R1, 1);
        dx.write_reg(R2, 16);
        dx.run(
            &[
                Instruction::sld(DType::U32, b.base(), T0, R0, R1, R2),
                Instruction::ild(DType::U32, a.base(), T1, T0),
            ],
            &mut mem,
        )
        .unwrap();
        let expect: Vec<u64> = idx.iter().map(|&i| 1000 + i).collect();
        assert_eq!(dx.tile(T1).valid(), &expect[..]);
    }

    #[test]
    fn scatter_and_rmw() {
        let (mut dx, mut mem) = setup();
        let a = mem.alloc("A", DType::U32, 16);
        dx.write_tile(T0, &[3, 7, 3]); // indices (3 twice!)
        dx.write_tile(T1, &[10, 20, 30]);
        dx.execute(&Instruction::ist(DType::U32, a.base(), T0, T1), &mut mem)
            .unwrap();
        // Duplicate index: the later lane wins (sequential semantics).
        assert_eq!(mem.read_elem(a, 3), 30);
        assert_eq!(mem.read_elem(a, 7), 20);
        dx.execute(
            &Instruction::irmw(DType::U32, AluOp::Add, a.base(), T0, T1),
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_elem(a, 3), 30 + 10 + 30);
        assert_eq!(mem.read_elem(a, 7), 40);
    }

    #[test]
    fn conditional_store_skips_lanes() {
        let (mut dx, mut mem) = setup();
        let a = mem.alloc("A", DType::U32, 8);
        dx.write_tile(T0, &[1, 2, 3]);
        dx.write_tile(T1, &[11, 22, 33]);
        dx.write_tile(T2, &[1, 0, 1]); // condition
        dx.execute(
            &Instruction::ist(DType::U32, a.base(), T0, T1).with_condition(T2),
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_elem(a, 1), 11);
        assert_eq!(mem.read_elem(a, 2), 0, "gated lane must not store");
        assert_eq!(mem.read_elem(a, 3), 33);
    }

    #[test]
    fn alu_vector_and_scalar() {
        let (mut dx, mut mem) = setup();
        dx.write_tile(T0, &[1, 2, 3, 4]);
        dx.write_tile(T1, &[10, 20, 30, 40]);
        dx.execute(
            &Instruction::Aluv {
                dtype: DType::U32,
                op: AluOp::Add,
                td: T2,
                ts1: T0,
                ts2: T1,
                tc: None,
            },
            &mut mem,
        )
        .unwrap();
        assert_eq!(dx.tile(T2).valid(), &[11, 22, 33, 44]);
        dx.write_reg(R0, 25);
        dx.execute(
            &Instruction::Alus {
                dtype: DType::U32,
                op: AluOp::Ge,
                td: T3,
                ts: T1,
                rs: R0,
                tc: None,
            },
            &mut mem,
        )
        .unwrap();
        assert_eq!(dx.tile(T3).valid(), &[0, 0, 1, 1]);
    }

    #[test]
    fn float_rmw_accumulates() {
        let (mut dx, mut mem) = setup();
        let a = mem.alloc("A", DType::F32, 4);
        dx.write_tile(T0, &[2, 2, 2]);
        dx.write_tile(T1, &[from_f32(1.5), from_f32(2.0), from_f32(0.25)]);
        dx.execute(
            &Instruction::irmw(DType::F32, AluOp::Add, a.base(), T0, T1),
            &mut mem,
        )
        .unwrap();
        assert_eq!(to_f32(mem.read_elem(a, 2)), 3.75);
    }

    #[test]
    fn range_fuser_flattens_ranges() {
        let (mut dx, mut mem) = setup();
        dx.write_tile(T0, &[0, 5, 9]); // lows
        dx.write_tile(T1, &[2, 5, 12]); // highs (middle range empty)
        dx.write_reg(R0, 64);
        dx.execute(
            &Instruction::Rng {
                td1: T2,
                td2: T3,
                ts1: T0,
                ts2: T1,
                rs1: R0,
                tc: None,
            },
            &mut mem,
        )
        .unwrap();
        assert_eq!(dx.tile(T2).valid(), &[0, 0, 2, 2, 2]);
        assert_eq!(dx.tile(T3).valid(), &[0, 1, 9, 10, 11]);
    }

    #[test]
    fn range_fuser_overflow_detected() {
        let (mut dx, mut mem) = setup();
        dx.write_tile(T0, &[0]);
        dx.write_tile(T1, &[1000]); // way past the 64-element tile
        dx.write_reg(R0, 1000);
        let err = dx
            .execute(
                &Instruction::Rng {
                    td1: T2,
                    td2: T3,
                    ts1: T0,
                    ts2: T1,
                    rs1: R0,
                    tc: None,
                },
                &mut mem,
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::TileOverflow { .. }));
    }

    #[test]
    fn unknown_source_length_rejected() {
        let (mut dx, mut mem) = setup();
        let a = mem.alloc("A", DType::U32, 8);
        let err = dx
            .execute(&Instruction::ild(DType::U32, a.base(), T1, T0), &mut mem)
            .unwrap_err();
        assert_eq!(err, ExecError::SourceLenUnknown(T0));
    }

    #[test]
    fn illegal_rmw_rejected() {
        let (mut dx, mut mem) = setup();
        dx.write_tile(T0, &[0]);
        dx.write_tile(T1, &[1]);
        let err = dx
            .execute(
                &Instruction::irmw(DType::U32, AluOp::Mul, 4096, T0, T1),
                &mut mem,
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::Illegal(_)));
    }

    #[test]
    fn strided_stream_load() {
        let (mut dx, mut mem) = setup();
        let a = mem.alloc("A", DType::U64, 32);
        for i in 0..32 {
            mem.write_elem(a, i, i * 100);
        }
        dx.write_reg(R0, 4); // start
        dx.write_reg(R1, 3); // stride
        dx.write_reg(R2, 5); // count
        dx.execute(
            &Instruction::sld(DType::U64, a.base(), T0, R0, R1, R2),
            &mut mem,
        )
        .unwrap();
        assert_eq!(dx.tile(T0).valid(), &[400, 700, 1000, 1300, 1600]);
    }
}
