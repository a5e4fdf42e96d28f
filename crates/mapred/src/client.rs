//! Job submission client.

use std::time::Duration;

use rpcoib::{Client, RpcError, RpcResult};
use simnet::SimAddr;
use wire::IntWritable;

use crate::types::{JobConf, JobState, JobStatus};

const SUBMISSION_PROTOCOL: &str = "mapred.JobSubmissionProtocol";

/// Client for submitting jobs and polling their status.
pub struct JobClient {
    rpc: Client,
    jt: SimAddr,
}

impl JobClient {
    /// Wrap an RPC client pointed at the JobTracker.
    pub fn new(rpc: Client, jt: SimAddr) -> JobClient {
        JobClient { rpc, jt }
    }

    /// The underlying RPC client.
    pub fn rpc(&self) -> &Client {
        &self.rpc
    }

    /// Submit a job; returns its id.
    pub fn submit(&self, conf: &JobConf) -> RpcResult<u32> {
        let status: JobStatus = self
            .rpc
            .call(self.jt, SUBMISSION_PROTOCOL, "submitJob", conf)?;
        Ok(status.job)
    }

    /// Current status of a job.
    pub fn status(&self, job: u32) -> RpcResult<JobStatus> {
        self.rpc.call(
            self.jt,
            SUBMISSION_PROTOCOL,
            "getJobStatus",
            &IntWritable(job as i32),
        )
    }

    /// Poll `getJobStatus` until the job leaves the `Running` state, or
    /// `timeout` passes on the client's clock. A poll, as Hadoop's
    /// `JobClient` makes: the JobTracker tells nobody when a job ends.
    pub fn wait(&self, job: u32, timeout: Duration) -> RpcResult<JobStatus> {
        let clock = self.rpc.clock();
        let deadline = clock.deadline(timeout);
        loop {
            let status = self.status(job)?;
            if status.state != JobState::Running {
                return Ok(status);
            }
            if clock.now_ns() > deadline {
                return Err(RpcError::Timeout);
            }
            clock.sleep(Duration::from_millis(50));
        }
    }

    /// Kill a running job: it transitions to `Failed`, scheduling stops,
    /// and in-flight attempts are disowned.
    pub fn kill(&self, job: u32) -> RpcResult<JobStatus> {
        self.rpc.call(
            self.jt,
            SUBMISSION_PROTOCOL,
            "killJob",
            &IntWritable(job as i32),
        )
    }

    /// Submit and wait; errors unless the job succeeds.
    pub fn run(&self, conf: &JobConf, timeout: Duration) -> RpcResult<JobStatus> {
        let job = self.submit(conf)?;
        let status = self.wait(job, timeout)?;
        if status.state != JobState::Succeeded {
            return Err(RpcError::Remote(format!(
                "job {} ({}) failed: {status:?}",
                job, conf.name
            )));
        }
        Ok(status)
    }
}

impl std::fmt::Debug for JobClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobClient").field("jt", &self.jt).finish()
    }
}
