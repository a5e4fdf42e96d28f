//! Protocol data types exchanged over `hdfs.ClientProtocol` and
//! `hdfs.DatanodeProtocol`, with Hadoop-`Writable` wire formats.

use std::io;

use simnet::{NodeId, SimAddr};
use wire::{DataInput, DataOutput, Writable};

/// Identity + data-transfer address of a DataNode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatanodeInfo {
    /// NameNode-assigned registration id.
    pub id: u32,
    /// Node id on the data fabric.
    pub xfer_node: u32,
    /// Data-transfer port.
    pub xfer_port: u16,
}

impl DatanodeInfo {
    /// The address the data-transfer service listens on.
    pub fn xfer_addr(&self) -> SimAddr {
        SimAddr::new(NodeId(self.xfer_node), self.xfer_port)
    }
}

impl Writable for DatanodeInfo {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i32(self.id as i32)?;
        out.write_i32(self.xfer_node as i32)?;
        out.write_u16(self.xfer_port)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.id = input.read_i32()? as u32;
        self.xfer_node = input.read_i32()? as u32;
        self.xfer_port = input.read_u16()?;
        Ok(())
    }
}

/// A block id plus the DataNodes holding (or designated to hold) it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocatedBlock {
    pub block: u64,
    pub size: u64,
    pub targets: Vec<DatanodeInfo>,
}

impl Writable for LocatedBlock {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_i64(self.block as i64)?;
        out.write_i64(self.size as i64)?;
        self.targets.write(out)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.block = input.read_i64()? as u64;
        self.size = input.read_i64()? as u64;
        self.targets.read_fields(input)
    }
}

/// Metadata returned by `getFileInfo` / `getListing`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileStatus {
    pub path: String,
    pub is_dir: bool,
    pub len: u64,
    pub replication: u32,
    pub block_size: u64,
}

impl Writable for FileStatus {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_string(&self.path)?;
        out.write_bool(self.is_dir)?;
        out.write_vlong(self.len as i64)?;
        out.write_vint(self.replication as i32)?;
        out.write_vlong(self.block_size as i64)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.path = input.read_string()?;
        self.is_dir = input.read_bool()?;
        self.len = input.read_vlong()? as u64;
        self.replication = input.read_vint()? as u32;
        self.block_size = input.read_vlong()? as u64;
        Ok(())
    }
}

/// Parameter of `addBlock`: path plus DataNodes the client wants excluded
/// (ones it has observed failing mid-pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddBlockArgs {
    pub path: String,
    pub exclude: Vec<u32>,
}

impl Writable for AddBlockArgs {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_string(&self.path)?;
        out.write_vint(self.exclude.len() as i32)?;
        for id in &self.exclude {
            out.write_vint(*id as i32)?;
        }
        Ok(())
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.path = input.read_string()?;
        let n = input.read_vint()?;
        self.exclude = (0..n)
            .map(|_| input.read_vint().map(|v| v as u32))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// Parameter of `blockReceived`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockReceivedArgs {
    pub dn_id: u32,
    pub block: u64,
    pub size: u64,
}

impl Writable for BlockReceivedArgs {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_vint(self.dn_id as i32)?;
        out.write_i64(self.block as i64)?;
        out.write_vlong(self.size as i64)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.dn_id = input.read_vint()? as u32;
        self.block = input.read_i64()? as u64;
        self.size = input.read_vlong()? as u64;
        Ok(())
    }
}

/// Parameter of `blockReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockReportArgs {
    pub dn_id: u32,
    pub blocks: Vec<u64>,
}

impl Writable for BlockReportArgs {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        out.write_vint(self.dn_id as i32)?;
        self.blocks.write(out)
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        self.dn_id = input.read_vint()? as u32;
        self.blocks.read_fields(input)
    }
}

/// A command returned to a DataNode in its heartbeat response — the
/// mechanism HDFS uses to drive re-replication of under-replicated
/// blocks after a DataNode death, and to free the replicas of deleted
/// ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DnCommand {
    /// No-op (placeholder for unknown future commands).
    #[default]
    None,
    /// Copy a locally held block to `targets` via a write pipeline.
    Replicate {
        block: u64,
        targets: Vec<DatanodeInfo>,
    },
    /// Drop the local replicas of `blocks`: their files are gone.
    Invalidate { blocks: Vec<u64> },
}

impl Writable for DnCommand {
    fn write(&self, out: &mut dyn DataOutput) -> io::Result<()> {
        match self {
            DnCommand::None => out.write_u8(0),
            DnCommand::Replicate { block, targets } => {
                out.write_u8(1)?;
                out.write_i64(*block as i64)?;
                targets.write(out)
            }
            DnCommand::Invalidate { blocks } => {
                out.write_u8(2)?;
                blocks.write(out)
            }
        }
    }
    fn read_fields(&mut self, input: &mut dyn DataInput) -> io::Result<()> {
        *self = match input.read_u8()? {
            0 => DnCommand::None,
            1 => {
                let block = input.read_i64()? as u64;
                let mut targets = Vec::new();
                targets.read_fields(input)?;
                DnCommand::Replicate { block, targets }
            }
            2 => {
                // A block report's list, with its bound on the count.
                let mut blocks = Vec::new();
                blocks.read_fields(input)?;
                DnCommand::Invalidate { blocks }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad DnCommand tag {other}"),
                ))
            }
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{from_bytes, to_bytes};

    fn roundtrip<W: Writable + Default + PartialEq + std::fmt::Debug>(v: W) {
        let back: W = from_bytes(&to_bytes(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn protocol_types_roundtrip() {
        roundtrip(DatanodeInfo {
            id: 3,
            xfer_node: 17,
            xfer_port: 50010,
        });
        roundtrip(LocatedBlock {
            block: 42,
            size: 1 << 21,
            targets: vec![
                DatanodeInfo {
                    id: 1,
                    xfer_node: 5,
                    xfer_port: 50010,
                },
                DatanodeInfo {
                    id: 2,
                    xfer_node: 6,
                    xfer_port: 50010,
                },
            ],
        });
        roundtrip(FileStatus {
            path: "/user/data/part-00000".into(),
            is_dir: false,
            len: 123456789,
            replication: 3,
            block_size: 2 << 20,
        });
        roundtrip(AddBlockArgs {
            path: "/f".into(),
            exclude: vec![7, 9],
        });
        roundtrip(BlockReceivedArgs {
            dn_id: 2,
            block: 99,
            size: 4096,
        });
        roundtrip(BlockReportArgs {
            dn_id: 1,
            blocks: vec![1, 2, 3],
        });
        roundtrip(DnCommand::None);
        roundtrip(DnCommand::Replicate {
            block: 7,
            targets: vec![DatanodeInfo {
                id: 4,
                xfer_node: 8,
                xfer_port: 50010,
            }],
        });
        roundtrip(DnCommand::Invalidate {
            blocks: vec![3, 1 << 40],
        });
    }

    #[test]
    fn xfer_addr_is_derived() {
        let dn = DatanodeInfo {
            id: 0,
            xfer_node: 9,
            xfer_port: 50010,
        };
        assert_eq!(dn.xfer_addr(), SimAddr::new(NodeId(9), 50010));
    }

    #[test]
    fn block_received_size_is_typical_430_bytes_order() {
        // Sanity for the paper's §III-C observation: blockReceived frames
        // are small and steady. Ours is smaller than Java's (no class
        // names on the wire) but must stay well under one size class.
        let bytes = to_bytes(&BlockReceivedArgs {
            dn_id: 3,
            block: 1 << 40,
            size: 1 << 21,
        })
        .unwrap();
        assert!(
            bytes.len() < 128,
            "blockReceived fits in the smallest class"
        );
    }
}
