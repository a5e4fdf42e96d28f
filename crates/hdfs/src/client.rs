//! The DFS client: metadata operations over `hdfs.ClientProtocol` plus
//! the streaming write (3-replica pipeline) and read paths.

use std::io::{self, Write};

use rpcoib::{Client, RpcError, RpcResult};
use simnet::SimAddr;
use wire::{BooleanWritable, IntWritable, LongWritable, NullWritable, Text};

use crate::config::{HdfsConfig, HostNet};
use crate::dataxfer::{
    recv_frame, recv_frame_into, send_read, send_transfer, DataConnPool, DataFrame, Opening,
    ACK_CORRUPT, ACK_OK, DATA_TIMEOUT,
};
use crate::types::{AddBlockArgs, FileStatus, LocatedBlock};

const CLIENT_PROTOCOL: &str = "hdfs.ClientProtocol";
/// Pipeline attempts per block before giving up.
const WRITE_ATTEMPTS: usize = 4;

/// A mini-HDFS client.
pub struct DfsClient {
    rpc: Client,
    nn: SimAddr,
    pool: DataConnPool,
    cfg: HdfsConfig,
}

impl DfsClient {
    /// Create a client whose RPC and data planes follow `net`.
    pub fn new(net: &HostNet, nn: SimAddr, cfg: HdfsConfig) -> RpcResult<DfsClient> {
        let rpc = Client::new(&net.rpc_fabric, net.rpc_node, cfg.rpc.clone())?;
        let pool = DataConnPool::new(&net.data_fabric, net.data_node, cfg.data_rpc_config())?;
        Ok(DfsClient { rpc, nn, pool, cfg })
    }

    /// The underlying RPC client (its metrics feed Table I).
    pub fn rpc(&self) -> &Client {
        &self.rpc
    }

    /// Close the NameNode connection; in-flight calls fail. The data-plane
    /// connection pool drops with the client.
    pub fn shutdown(&self) {
        self.rpc.shutdown();
    }

    // --- Metadata operations (Table I's ClientProtocol rows). ---

    pub fn mkdirs(&self, path: &str) -> RpcResult<bool> {
        let ok: BooleanWritable =
            self.rpc
                .call(self.nn, CLIENT_PROTOCOL, "mkdirs", &Text::from(path))?;
        Ok(ok.0)
    }

    pub fn get_file_info(&self, path: &str) -> RpcResult<Option<FileStatus>> {
        self.rpc
            .call(self.nn, CLIENT_PROTOCOL, "getFileInfo", &Text::from(path))
    }

    pub fn list(&self, path: &str) -> RpcResult<Vec<FileStatus>> {
        self.rpc
            .call(self.nn, CLIENT_PROTOCOL, "getListing", &Text::from(path))
    }

    pub fn rename(&self, src: &str, dst: &str) -> RpcResult<bool> {
        let ok: BooleanWritable = self.rpc.call(
            self.nn,
            CLIENT_PROTOCOL,
            "rename",
            &(Text::from(src), Text::from(dst)),
        )?;
        Ok(ok.0)
    }

    pub fn delete(&self, path: &str) -> RpcResult<bool> {
        let ok: BooleanWritable =
            self.rpc
                .call(self.nn, CLIENT_PROTOCOL, "delete", &Text::from(path))?;
        Ok(ok.0)
    }

    pub fn renew_lease(&self, client_name: &str) -> RpcResult<()> {
        let _: NullWritable = self.rpc.call(
            self.nn,
            CLIENT_PROTOCOL,
            "renewLease",
            &Text::from(client_name),
        )?;
        Ok(())
    }

    pub fn get_block_locations(&self, path: &str) -> RpcResult<Vec<LocatedBlock>> {
        self.rpc.call(
            self.nn,
            CLIENT_PROTOCOL,
            "getBlockLocations",
            &Text::from(path),
        )
    }

    // --- Write path. ---

    fn create_entry(&self, path: &str) -> RpcResult<()> {
        let _: BooleanWritable = self.rpc.call(
            self.nn,
            CLIENT_PROTOCOL,
            "create",
            &(Text::from(path), IntWritable(self.cfg.replication as i32)),
        )?;
        Ok(())
    }

    /// Open a file for writing. The writer's buffer grows as it is
    /// written to: a block's worth (2 MiB) up front was an mmap, its page
    /// faults and a munmap per file, however small the file.
    pub fn create(&self, path: &str) -> RpcResult<DfsWriter<'_>> {
        self.create_entry(path)?;
        Ok(DfsWriter {
            client: self,
            path: path.to_owned(),
            buf: Vec::new(),
            closed: false,
        })
    }

    /// Create a file holding `data`. The caller's slice is cut into
    /// blocks where it lies — nothing is staged: the same `create`,
    /// `addBlock` per block and `complete` a [`DfsWriter`] would issue.
    pub fn write_file(&self, path: &str, data: &[u8]) -> RpcResult<()> {
        self.create_entry(path)?;
        let mut exclude = Vec::new();
        for block in data.chunks(self.cfg.block_size) {
            self.write_block(path, block, &mut exclude)?;
        }
        self.complete(path)
    }

    /// Read a whole file back. Like Hadoop's `FileSystem.open`, this
    /// first asks the NameNode for the file's status (`getFileInfo` —
    /// one of the Table I / Figure 3 call kinds), then for its blocks.
    pub fn read_file(&self, path: &str) -> RpcResult<Vec<u8>> {
        let status = self.get_file_info(path)?;
        match status {
            Some(info) if !info.is_dir => {}
            Some(_) => return Err(RpcError::Remote(format!("is a directory: {path}"))),
            None => return Err(RpcError::Remote(format!("no such file: {path}"))),
        }
        let blocks = self.get_block_locations(path)?;
        let mut out = Vec::new();
        for lb in blocks {
            out.extend(self.read_block(&lb)?);
        }
        Ok(out)
    }

    fn read_block(&self, lb: &LocatedBlock) -> RpcResult<Vec<u8>> {
        self.read_block_range(lb, 0, u64::MAX)
    }

    /// Read `[offset, offset+len)` of one block, trying each replica.
    fn read_block_range(&self, lb: &LocatedBlock, offset: u64, len: u64) -> RpcResult<Vec<u8>> {
        let mut last_err = None;
        for target in &lb.targets {
            match self.try_read_block_from(lb.block, target.xfer_addr(), offset, len) {
                Ok(data) => return Ok(data),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| RpcError::Protocol(format!("block {} has no locations", lb.block))))
    }

    fn try_read_block_from(
        &self,
        block: u64,
        addr: SimAddr,
        offset: u64,
        len: u64,
    ) -> RpcResult<Vec<u8>> {
        let mut conn = self.pool.checkout(addr)?;
        let run = (|| -> RpcResult<Vec<u8>> {
            send_read(conn.conn(), block, offset, len)?;
            // The replica's word, so refused beyond `block_size`: `SIZE`
            // reserves `data` for exactly the bytes it announces, and the
            // read is complete when that many have arrived.
            let mut data = Vec::new();
            let opened = recv_frame_into(conn.conn(), DATA_TIMEOUT, &mut data, self.cfg.block_size);
            let size = match opened? {
                DataFrame::Size { size, .. } => size as usize,
                DataFrame::Ack(ACK_CORRUPT) => {
                    return Err(RpcError::Protocol(format!(
                        "replica of block {block} failed checksum verification"
                    )))
                }
                DataFrame::Ack(_) => {
                    return Err(RpcError::Protocol(format!("replica missing block {block}")))
                }
                _ => return Err(RpcError::Protocol("expected SIZE".into())),
            };
            while data.len() < size {
                match recv_frame_into(conn.conn(), DATA_TIMEOUT, &mut data, size)? {
                    DataFrame::Data { .. } => {}
                    _ => {
                        return Err(RpcError::Protocol(format!(
                            "short block read: {} of {size}",
                            data.len()
                        )))
                    }
                }
            }
            Ok(data)
        })();
        if run.is_err() {
            conn.poison();
        }
        run
    }

    /// Read `len` bytes starting at byte `offset` of a file (pread).
    /// Short reads happen only at end of file.
    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> RpcResult<Vec<u8>> {
        let blocks = self.get_block_locations(path)?;
        let mut out = Vec::new();
        let mut cursor = 0u64; // absolute file offset of the current block
        let mut want_start = offset;
        let mut remaining = len;
        for lb in &blocks {
            let block_len = lb.size;
            let block_end = cursor + block_len;
            if remaining == 0 {
                break;
            }
            if want_start < block_end {
                let in_block_off = want_start - cursor;
                let take = remaining.min(block_end - want_start);
                out.extend(self.read_block_range(lb, in_block_off, take)?);
                want_start += take;
                remaining -= take;
            }
            cursor = block_end;
        }
        Ok(out)
    }

    /// Open a file for streaming reads.
    pub fn open(&self, path: &str) -> RpcResult<DfsReader<'_>> {
        match self.get_file_info(path)? {
            Some(info) if !info.is_dir => {}
            Some(_) => return Err(RpcError::Remote(format!("is a directory: {path}"))),
            None => return Err(RpcError::Remote(format!("no such file: {path}"))),
        }
        let blocks = self.get_block_locations(path)?;
        Ok(DfsReader {
            client: self,
            blocks,
            block_idx: 0,
            buf: Vec::new(),
            buf_pos: 0,
        })
    }

    /// Write one block's worth of data through a fresh pipeline, retrying
    /// with exclusions when a replica fails mid-stream.
    fn write_block(&self, path: &str, data: &[u8], exclude: &mut Vec<u32>) -> RpcResult<()> {
        let mut last_err = None;
        for _attempt in 0..WRITE_ATTEMPTS {
            let lb: LocatedBlock = self.rpc.call(
                self.nn,
                CLIENT_PROTOCOL,
                "addBlock",
                &AddBlockArgs {
                    path: path.to_owned(),
                    exclude: exclude.clone(),
                },
            )?;
            match self.try_pipeline(&lb, data) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // Conservatively exclude every target of the failed
                    // attempt; the NameNode will re-include nodes that are
                    // still heartbeating on a later file.
                    for t in &lb.targets {
                        if !exclude.contains(&t.id) {
                            exclude.push(t.id);
                        }
                    }
                    let _: BooleanWritable = self.rpc.call(
                        self.nn,
                        CLIENT_PROTOCOL,
                        "abandonBlock",
                        &(Text::from(path), LongWritable(lb.block as i64)),
                    )?;
                    last_err = Some(e);
                    std::thread::sleep(self.cfg.heartbeat);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| RpcError::Protocol("no write attempts made".into())))
    }

    fn try_pipeline(&self, lb: &LocatedBlock, data: &[u8]) -> RpcResult<()> {
        let first = lb
            .targets
            .first()
            .ok_or_else(|| RpcError::Protocol("empty pipeline".into()))?;
        let mut conn = self.pool.checkout(first.xfer_addr())?;
        let run = (|| -> RpcResult<()> {
            let opening = Opening::Write {
                block: lb.block,
                len: data.len() as u64,
                targets: &lb.targets[1..],
            };
            send_transfer(conn.conn(), &opening, data, self.cfg.chunk)?;
            match recv_frame(conn.conn(), DATA_TIMEOUT)? {
                DataFrame::Ack(ACK_OK) => Ok(()),
                DataFrame::Ack(_) => Err(RpcError::Protocol("pipeline reported failure".into())),
                _ => Err(RpcError::Protocol("expected ACK".into())),
            }
        })();
        if run.is_err() {
            conn.poison();
        }
        run
    }

    fn complete(&self, path: &str) -> RpcResult<()> {
        let _: BooleanWritable =
            self.rpc
                .call(self.nn, CLIENT_PROTOCOL, "complete", &Text::from(path))?;
        Ok(())
    }
}

impl std::fmt::Debug for DfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfsClient").field("nn", &self.nn).finish()
    }
}

/// A file open for writing. Data is buffered into block-size units, each
/// written through a replica pipeline. Call [`DfsWriter::close`].
pub struct DfsWriter<'a> {
    client: &'a DfsClient,
    path: String,
    buf: Vec<u8>,
    closed: bool,
}

impl DfsWriter<'_> {
    /// Flush any buffered data as a final (possibly short) block and mark
    /// the file complete.
    pub fn close(mut self) -> RpcResult<()> {
        self.closed = true;
        let mut exclude = Vec::new();
        if !self.buf.is_empty() {
            let data = std::mem::take(&mut self.buf);
            self.client.write_block(&self.path, &data, &mut exclude)?;
        }
        self.client.complete(&self.path)
    }
}

impl Write for DfsWriter<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        let block_size = self.client.cfg.block_size;
        let mut exclude = Vec::new();
        while self.buf.len() >= block_size {
            let rest = self.buf.split_off(block_size);
            let full = std::mem::replace(&mut self.buf, rest);
            self.client
                .write_block(&self.path, &full, &mut exclude)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DfsWriter<'_> {
    fn drop(&mut self) {
        debug_assert!(
            self.closed || self.buf.is_empty(),
            "DfsWriter dropped without close()"
        );
    }
}

/// A file open for streaming reads: blocks are fetched lazily, one at a
/// time, with per-replica failover.
pub struct DfsReader<'a> {
    client: &'a DfsClient,
    blocks: Vec<LocatedBlock>,
    block_idx: usize,
    buf: Vec<u8>,
    buf_pos: usize,
}

impl DfsReader<'_> {
    /// Total file length according to the NameNode's block map.
    pub fn len(&self) -> u64 {
        self.blocks.iter().map(|b| b.size).sum()
    }

    /// True for zero-length files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl io::Read for DfsReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.buf_pos == self.buf.len() {
            let Some(lb) = self.blocks.get(self.block_idx) else {
                return Ok(0); // EOF
            };
            self.buf = self
                .client
                .read_block(lb)
                .map_err(|e| io::Error::other(e.to_string()))?;
            self.buf_pos = 0;
            self.block_idx += 1;
        }
        let n = (self.buf.len() - self.buf_pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + n]);
        self.buf_pos += n;
        Ok(n)
    }
}
