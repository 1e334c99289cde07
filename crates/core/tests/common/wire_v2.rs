//! Reference model of the delta wire (v2) item codec, for tests: written
//! from the grammar in DESIGN.md §3.2 over decoded `Determinant`s, sharing
//! nothing with the crate's wire codec. Included by `tests/properties.rs`
//! and, under `cfg(test)`, by the crate itself; both parents have
//! `Determinant` and `RpcKind` in scope.

#![allow(dead_code)] // each includer uses a part

use super::{Determinant, RpcKind};
use clonos_storage::codec::{ByteReader, ByteWriter, CodecError};

/// Tag-byte flag: `varint(epoch)` follows.
pub const EPOCH: u8 = 0x80;
/// Tag-byte flag: step fields are absolute.
pub const ABS: u8 = 0x40;

/// What an item is coded against: the epoch, and the last `Timestamp.ts`
/// and last step offset before it in that epoch (0 in a new epoch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    pub epoch: u64,
    pub ts: u64,
    pub offset: u64,
}

fn head(w: &mut ByteWriter, ctx: &mut Ctx, kind: u8, epoch: u64) {
    if epoch == ctx.epoch {
        w.put_u8(kind);
    } else {
        w.put_u8(kind | EPOCH);
        w.put_varint(epoch);
        *ctx = Ctx { epoch, ts: 0, offset: 0 };
    }
}

/// A step field as a zigzag delta from `prev`, or absolute under `abs`.
fn step(w: &mut ByteWriter, v: u64, prev: &mut u64, abs: bool) {
    if abs {
        w.put_varint(v);
    } else {
        w.put_varint_i64(v.wrapping_sub(*prev) as i64);
    }
    *prev = v;
}

/// Whether `v - prev` is out of `i64`'s range.
fn far(v: u64, prev: u64) -> bool {
    let d = v as i128 - prev as i128;
    d < i64::MIN as i128 || d > i64::MAX as i128
}

/// Encode one entry under `epoch` against `ctx`, which advances.
pub fn encode(w: &mut ByteWriter, ctx: &mut Ctx, epoch: u64, d: &Determinant) {
    if epoch != ctx.epoch {
        // Step fields are coded against the restarted context.
        let fields = Ctx { epoch, ts: 0, offset: 0 };
        let mut body = ByteWriter::new();
        let mut after = fields;
        encode(&mut body, &mut after, epoch, d);
        w.put_u8(body.as_slice()[0] | EPOCH);
        w.put_varint(epoch);
        w.put_raw(&body.as_slice()[1..]);
        *ctx = after;
        return;
    }
    let abs = match *d {
        Determinant::Timestamp { ts, offset } => far(ts, ctx.ts) || far(offset, ctx.offset),
        Determinant::Timer { offset, .. } | Determinant::Rpc { offset, .. } => far(offset, ctx.offset),
        _ => false,
    };
    let flag = if abs { ABS } else { 0 };
    match d {
        Determinant::Order { channel } => {
            head(w, ctx, 0, epoch);
            w.put_varint(*channel as u64);
        }
        Determinant::Timer { timer_id, offset } => {
            head(w, ctx, 1 | flag, epoch);
            w.put_varint(*timer_id);
            step(w, *offset, &mut ctx.offset, abs);
        }
        Determinant::Rpc { kind, arg, offset } => {
            head(w, ctx, 2 | flag, epoch);
            w.put_u8(match kind {
                RpcKind::TriggerCheckpoint => 0,
                RpcKind::Other => 1,
            });
            w.put_varint(*arg);
            step(w, *offset, &mut ctx.offset, abs);
        }
        Determinant::Timestamp { ts, offset } => {
            head(w, ctx, 3 | flag, epoch);
            step(w, *ts, &mut ctx.ts, abs);
            step(w, *offset, &mut ctx.offset, abs);
        }
        Determinant::RngSeed { seed } => {
            head(w, ctx, 4, epoch);
            w.put_varint(*seed);
        }
        Determinant::External { payload } => {
            head(w, ctx, 5, epoch);
            w.put_bytes(payload);
        }
        Determinant::UserService { payload } => {
            head(w, ctx, 6, epoch);
            w.put_bytes(payload);
        }
        Determinant::BufferFlush { size, records } => {
            head(w, ctx, 7, epoch);
            w.put_varint(*size as u64);
            w.put_varint(*records as u64);
        }
        Determinant::Watermark { ts } => {
            head(w, ctx, 8, epoch);
            w.put_varint(*ts);
        }
    }
}

fn read_step(r: &mut ByteReader<'_>, prev: &mut u64, abs: bool) -> Result<u64, CodecError> {
    let v = if abs {
        r.get_varint()?
    } else {
        let d = r.get_varint_i64()?;
        prev.checked_add_signed(d).ok_or(CodecError::Inconsistent { context: "step" })?
    };
    *prev = v;
    Ok(v)
}

/// Decode one entry against `ctx`, which advances; `(epoch, entry)`.
pub fn decode(r: &mut ByteReader<'_>, ctx: &mut Ctx) -> Result<(u64, Determinant), CodecError> {
    let tag = r.get_u8()?;
    if tag & EPOCH != 0 {
        *ctx = Ctx { epoch: r.get_varint()?, ts: 0, offset: 0 };
    }
    let (kind, abs) = (tag & 0x3F, tag & ABS != 0);
    if abs && !(1..=3).contains(&kind) {
        return Err(CodecError::InvalidTag { context: "Determinant", tag: tag & !EPOCH });
    }
    let det = match kind {
        0 => Determinant::Order { channel: r.get_varint()? as u32 },
        1 => Determinant::Timer { timer_id: r.get_varint()?, offset: read_step(r, &mut ctx.offset, abs)? },
        2 => {
            let kind = match r.get_u8()? {
                0 => RpcKind::TriggerCheckpoint,
                1 => RpcKind::Other,
                tag => return Err(CodecError::InvalidTag { context: "RpcKind", tag }),
            };
            let arg = r.get_varint()?;
            Determinant::Rpc { kind, arg, offset: read_step(r, &mut ctx.offset, abs)? }
        }
        3 => Determinant::Timestamp {
            ts: read_step(r, &mut ctx.ts, abs)?,
            offset: read_step(r, &mut ctx.offset, abs)?,
        },
        4 => Determinant::RngSeed { seed: r.get_varint()? },
        5 => Determinant::External { payload: r.get_bytes()?.to_vec() },
        6 => Determinant::UserService { payload: r.get_bytes()?.to_vec() },
        7 => Determinant::BufferFlush { size: r.get_varint()? as u32, records: r.get_varint()? as u32 },
        8 => Determinant::Watermark { ts: r.get_varint()? },
        kind => return Err(CodecError::InvalidTag { context: "Determinant", tag: kind }),
    };
    Ok((ctx.epoch, det))
}
