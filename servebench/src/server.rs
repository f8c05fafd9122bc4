//! The `gmaa-serve` child process: spawn on a loopback port, read its
//! peak memory, stop it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

pub struct Server {
    child: Child,
    /// Kept open so the server's later banner lines never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start the binary with `flags` plus `--addr 127.0.0.1:0`, and wait
    /// for its banner to learn the port.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(flags)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("gmaa-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("gmaa-serve did not start (banner {banner:?})")),
        }
    }

    /// CPU time (user + system, all threads) the server has used, in
    /// clock ticks of `/proc/<pid>/stat`.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (tick(11), tick(12)) {
            (Some(u), Some(s)) => Ok(u + s),
            _ => Err(format!("unexpected {path}")),
        }
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Nothing of the server's state is needed after a run, so it is
        // killed rather than drained; the wait reaps it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
