//! The served program as a child process: `bucketrank serve` on an
//! ephemeral loopback port, so its memory, CPU and disk writes can be
//! read from `/proc/<pid>` apart from the load generator's.

use bucketrank_server::Client;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for a spawned server to serve its first request.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `bucketrank serve` child.
pub struct Served {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn until it answered its first request.
    pub ready_s: f64,
}

impl Served {
    /// Spawns `bin serve --workers 2` with `extra` flags and waits until
    /// it answers a `ping`. `scratch` receives the address file.
    pub fn spawn(bin: &Path, scratch: &Path, extra: &[String]) -> Result<Served, String> {
        let addr_file: PathBuf = scratch.join("serve.addr");
        let _ = std::fs::remove_file(&addr_file);
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--addr-file"])
            .arg(&addr_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let addr = loop {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            let parsed = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok());
            if let Some(addr) = parsed {
                if Client::connect(addr).and_then(|mut c| {
                    c.ping().map_err(|e| std::io::Error::other(e.to_string()))
                })
                .is_ok()
                {
                    break addr;
                }
            }
            if t0.elapsed() > START_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not start serving in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        Ok(Served {
            child,
            addr,
            ready_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

}

/// Dropping SIGKILLs the child and reaps it: the crash of the
/// durability step, and the end of every run.
impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
