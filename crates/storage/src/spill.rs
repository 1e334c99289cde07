//! Spill device: an append-oriented local "disk" with an I/O cost model,
//! backing the spilling in-flight log of §6.1.
//!
//! The in-flight log hands buffers to the device asynchronously (the paper's
//! "asynchronously spilling in-flight log"); reads happen during replay with
//! a sequential access pattern, which is why the paper's `spill-threshold`
//! policy performs well. The cost model distinguishes a per-operation seek
//! cost from streaming throughput so that batched I/O (spill-threshold,
//! spill-epoch) beats per-buffer I/O (spill-buffer) — the exact trade-off the
//! §7.5 memory experiment measures.

use crate::TransferModel;
use bytes::Bytes;
use clonos_sim::VirtualDuration;
use std::collections::BTreeMap;

/// Handle to a spilled buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpillHandle(pub u64);

/// The device. Writes are modelled, contents retained for later reads.
#[derive(Clone, Debug, Default)]
pub struct SpillDevice {
    data: BTreeMap<SpillHandle, Bytes>,
    next: u64,
    bytes_written: u64,
    bytes_read: u64,
    write_ops: u64,
    read_ops: u64,
}

impl SpillDevice {
    pub fn new() -> SpillDevice {
        SpillDevice::default()
    }

    /// Write one buffer; returns its handle and the modelled I/O duration.
    pub fn write(&mut self, bytes: Bytes) -> (SpillHandle, VirtualDuration) {
        let h = SpillHandle(self.next);
        self.next += 1;
        self.bytes_written += bytes.len() as u64;
        self.write_ops += 1;
        let cost = TransferModel::DISK.cost(bytes.len() as u64);
        self.data.insert(h, bytes);
        (h, cost)
    }

    /// Write a batch of buffers as one sequential operation (cheaper per
    /// buffer than individual writes — this is what batching buys).
    pub fn write_batch(&mut self, buffers: Vec<Bytes>) -> (Vec<SpillHandle>, VirtualDuration) {
        let total: u64 = buffers.iter().map(|b| b.len() as u64).sum();
        let cost = TransferModel::DISK.cost(total);
        self.write_ops += 1;
        self.bytes_written += total;
        let handles = buffers
            .into_iter()
            .map(|b| {
                let h = SpillHandle(self.next);
                self.next += 1;
                self.data.insert(h, b);
                h
            })
            .collect();
        (handles, cost)
    }

    /// Read a buffer back; the buffer stays on the device until freed.
    pub fn read(&mut self, h: SpillHandle) -> Option<(Bytes, VirtualDuration)> {
        let bytes = self.data.get(&h)?.clone();
        self.read_ops += 1;
        self.bytes_read += bytes.len() as u64;
        let cost = TransferModel::DISK.cost(bytes.len() as u64);
        Some((bytes, cost))
    }

    /// Read a byte range out of a spilled buffer — the lsm point-read path,
    /// which touches only the sparse-index block containing the key rather
    /// than the whole segment. Charged as one op plus the range's bytes.
    pub fn read_range(
        &mut self,
        h: SpillHandle,
        offset: usize,
        len: usize,
    ) -> Option<(Bytes, VirtualDuration)> {
        let bytes = self.data.get(&h)?;
        let end = offset.checked_add(len)?;
        if end > bytes.len() {
            return None;
        }
        let slice = bytes.slice(offset..end);
        self.read_ops += 1;
        self.bytes_read += slice.len() as u64;
        let cost = TransferModel::DISK.cost(slice.len() as u64);
        Some((slice, cost))
    }

    /// Borrow a buffer without modelling any I/O. Oracle paths (state
    /// digests, canonical snapshot folds) use this so observing the tier
    /// never perturbs the simulated timeline.
    pub fn peek(&self, h: SpillHandle) -> Option<&Bytes> {
        self.data.get(&h)
    }

    /// Free a spilled buffer (log truncation after a checkpoint).
    pub fn free(&mut self, h: SpillHandle) -> bool {
        self.data.remove(&h).is_some()
    }

    pub fn resident_bytes(&self) -> u64 {
        self.data.values().map(|b| b.len() as u64).sum()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    pub fn read_ops(&self) -> u64 {
        self.read_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_free_cycle() {
        let mut d = SpillDevice::new();
        let (h, wcost) = d.write(Bytes::from_static(b"hello"));
        assert!(wcost >= VirtualDuration::from_micros(100));
        let (bytes, _) = d.read(h).unwrap();
        assert_eq!(&bytes[..], b"hello");
        assert!(d.free(h));
        assert!(!d.free(h));
        assert!(d.read(h).is_none());
    }

    #[test]
    fn batch_write_cheaper_than_individual() {
        let bufs: Vec<Bytes> = (0..10).map(|_| Bytes::from(vec![0u8; 1024])).collect();
        let mut a = SpillDevice::new();
        let mut individual = VirtualDuration::ZERO;
        for b in bufs.clone() {
            individual = individual + a.write(b).1;
        }
        let mut bdev = SpillDevice::new();
        let (handles, batched) = bdev.write_batch(bufs);
        assert_eq!(handles.len(), 10);
        assert!(batched < individual, "batched={batched} individual={individual}");
        assert_eq!(a.bytes_written(), bdev.bytes_written());
        assert_eq!(a.write_ops(), 10);
        assert_eq!(bdev.write_ops(), 1);
    }

    #[test]
    fn accounting_tracks_residency() {
        let mut d = SpillDevice::new();
        let (h1, _) = d.write(Bytes::from(vec![0u8; 100]));
        let (_h2, _) = d.write(Bytes::from(vec![0u8; 50]));
        assert_eq!(d.resident_bytes(), 150);
        d.free(h1);
        assert_eq!(d.resident_bytes(), 50);
        assert_eq!(d.bytes_written(), 150);
    }
}
