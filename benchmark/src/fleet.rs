//! The deployed topology: `dg-router` over two `dg-serve --cache-dir`
//! shards, every other setting at its binary default.

use crate::client::{render_request, Conn};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Shards behind the router.
pub const SHARDS: usize = 2;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times (the
/// `USER_HZ` every Linux ABI this runs on fixes at 100).
const TICKS_PER_S: f64 = 100.0;

/// One spawned server process.
#[derive(Debug)]
struct Proc {
    child: Child,
    addr: SocketAddr,
    /// Held open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    /// Spawns `binary` and reads the `listening on <addr>` banner.
    fn spawn(binary: &Path, args: &[String]) -> io::Result<Proc> {
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("child has no stdout"));
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let banner = stdout.read_line(&mut line).map(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
        });
        match banner {
            Ok(Some(addr)) => Ok(Proc {
                child,
                addr,
                _stdout: stdout,
            }),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} printed no address banner ({other:?}, {line:?})",
                    binary.display()
                )))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `limit` for the process to exit on its own, then kills
    /// it. Returns whether it exited cleanly in time.
    fn wait_or_kill(&mut self, limit: Duration) -> bool {
        let deadline = crate::clock::now() + limit;
        while crate::clock::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        self.kill();
        false
    }
}

/// CPU time and peak memory of one process, from `/proc`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStats {
    /// User plus system CPU time, ms.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`), MiB.
    pub hwm_mb: f64,
}

/// Reads `/proc/<pid>/stat` and `/proc/<pid>/status`.
fn proc_stats(pid: u32) -> ProcStats {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let hwm_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    ProcStats {
        cpu_ms: (ticks(11) + ticks(12)) * 1000.0 / TICKS_PER_S,
        hwm_mb: hwm_kb / 1024.0,
    }
}

/// The running fleet.
#[derive(Debug)]
pub struct Fleet {
    router: Proc,
    shards: Vec<Proc>,
    dir: PathBuf,
}

impl Fleet {
    /// Spawns the shards over empty cache directories under `dir`, then
    /// the router over them. `bin_dir` holds `dg-serve` and `dg-router`.
    ///
    /// # Errors
    ///
    /// Missing binaries, spawn failures, or a child that prints no banner.
    pub fn spawn(bin_dir: &Path, dir: &Path) -> io::Result<Fleet> {
        let _ = std::fs::remove_dir_all(dir);
        let mut shards = Vec::with_capacity(SHARDS);
        for i in 0..SHARDS {
            let cache = dir.join(format!("shard{i}"));
            std::fs::create_dir_all(&cache)?;
            let args = vec!["--cache-dir".to_owned(), cache.display().to_string()];
            match Proc::spawn(&bin_dir.join("dg-serve"), &args) {
                Ok(p) => shards.push(p),
                Err(e) => {
                    shards.iter_mut().for_each(Proc::kill);
                    return Err(e);
                }
            }
        }
        let mut args = Vec::new();
        for s in &shards {
            args.push("--shard".to_owned());
            args.push(s.addr.to_string());
        }
        match Proc::spawn(&bin_dir.join("dg-router"), &args) {
            Ok(router) => Ok(Fleet {
                router,
                shards,
                dir: dir.to_owned(),
            }),
            Err(e) => {
                shards.iter_mut().for_each(Proc::kill);
                Err(e)
            }
        }
    }

    /// The router's address: where clients connect.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr
    }

    /// Polls the router's `/healthz` until it answers 200.
    ///
    /// # Errors
    ///
    /// The last failure, when no 200 arrives within ten seconds.
    pub fn wait_healthy(&self) -> io::Result<()> {
        let deadline = crate::clock::now() + Duration::from_secs(10);
        let probe = render_request("GET", "/healthz", None);
        let mut conn = Conn::new(self.router.addr);
        loop {
            let err = match conn.send(&probe) {
                Ok(ex) if ex.status == 200 => return Ok(()),
                Ok(ex) => io::Error::other(format!("/healthz answered {}", ex.status)),
                Err(e) => e,
            };
            if crate::clock::now() >= deadline {
                return Err(err);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Shard `i`'s address (direct, bypassing the router).
    pub fn shard_addr(&self, i: usize) -> Option<SocketAddr> {
        self.shards.get(i).map(|s| s.addr)
    }

    /// Router stats and the shards' summed stats.
    pub fn stats(&self) -> (ProcStats, ProcStats) {
        let router = proc_stats(self.router.pid());
        let mut shards = ProcStats::default();
        for s in &self.shards {
            let p = proc_stats(s.pid());
            shards.cpu_ms += p.cpu_ms;
            shards.hwm_mb += p.hwm_mb;
        }
        (router, shards)
    }

    /// Bytes under every shard's cache directory, MiB.
    pub fn disk_mb(&self) -> f64 {
        dir_bytes(&self.dir) as f64 / (1024.0 * 1024.0)
    }

    /// Stops the router, drains the shards, and deletes the cache
    /// directories. Returns whether every shard drained cleanly.
    pub fn teardown(mut self) -> bool {
        self.router.kill();
        let mut clean = true;
        for s in &mut self.shards {
            let drained = Conn::new(s.addr)
                .send(&render_request("POST", "/admin/drain", Some("")))
                .is_ok_and(|ex| ex.status == 200);
            clean &= drained && s.wait_or_kill(Duration::from_secs(10));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        clean
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Reached with live children only on an error path; `teardown`
        // has already reaped them otherwise (killing a reaped child is a
        // harmless error).
        self.router.kill();
        self.shards.iter_mut().for_each(Proc::kill);
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Counters scraped from the router's aggregated `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Requests the router parsed.
    pub router_requests: f64,
    /// Of those, answered from the router's reply cache.
    pub router_cache_hits: f64,
    /// Shard requests on simulation routes (health and metrics excluded).
    pub shard_requests: f64,
    /// Shard response-cache hits.
    pub respcache_hits: f64,
    /// Coalesced followers.
    pub coalesced: f64,
    /// Coalescing leaders.
    pub leaders: f64,
    /// 503 sheds at the router and the shards.
    pub shed: f64,
    /// Disk-cache stores.
    pub disk_stores: f64,
}

impl Counters {
    /// Parses Prometheus text as the router aggregates it.
    pub fn parse(text: &str) -> Counters {
        let mut c = Counters::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.trim().parse::<f64>() else {
                continue;
            };
            let name = series.split('{').next().unwrap_or_default();
            match name {
                "dg_router_requests_total" => c.router_requests += v,
                "dg_router_cache_hits_total" => c.router_cache_hits += v,
                "dg_router_shed_total" | "dg_shed_total" => c.shed += v,
                "dg_resp_cache_hits_total" => c.respcache_hits += v,
                "dg_coalesced_total" => c.coalesced += v,
                "dg_coalesce_leaders_total" => c.leaders += v,
                "dg_disk_cache_stores_total" => c.disk_stores += v,
                "dg_requests_total"
                    if !series.contains("route=\"healthz\"")
                        && !series.contains("route=\"metrics\"") =>
                {
                    c.shard_requests += v;
                }
                _ => {}
            }
        }
        c
    }

    /// Scrapes `addr`'s `/metrics`.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-200 reply.
    pub fn scrape(addr: SocketAddr) -> io::Result<Counters> {
        let ex = Conn::new(addr).send(&render_request("GET", "/metrics", None))?;
        if ex.status != 200 {
            return Err(io::Error::other(format!("/metrics answered {}", ex.status)));
        }
        Ok(Counters::parse(&String::from_utf8_lossy(&ex.body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_shards_and_skip_health_traffic() {
        let text = "# HELP x\n\
            dg_router_requests_total 100\n\
            dg_router_cache_hits_total 60\n\
            dg_router_shed_total 1\n\
            dg_requests_total{shard=\"0\",route=\"droop\",class=\"2xx\"} 30\n\
            dg_requests_total{shard=\"1\",route=\"explore\",class=\"2xx\"} 10\n\
            dg_requests_total{shard=\"1\",route=\"healthz\",class=\"2xx\"} 99\n\
            dg_resp_cache_hits_total{shard=\"0\"} 20\n\
            dg_resp_cache_hits_total{shard=\"1\"} 5\n\
            dg_shed_total{shard=\"1\"} 2\n\
            dg_disk_cache_stores_total{shard=\"0\"} 7\n";
        let c = Counters::parse(text);
        assert_eq!(
            (
                c.router_requests,
                c.router_cache_hits,
                c.shard_requests,
                c.respcache_hits
            ),
            (100.0, 60.0, 40.0, 25.0)
        );
        assert_eq!((c.shed, c.disk_stores), (3.0, 7.0));
    }
}
