//! The serve tier's one client connection and its one-shot helpers.
//!
//! Every request a serve-crate client sends goes out on a [`Conn`]: the
//! router's upstream pool and health probe, and the one-shot helpers
//! [`http_request`] and [`raw_request`]. A `Conn` writes one request and
//! reads exactly one reply through [`read_reply`], so one framer reads
//! every reply. Nothing is retried except a fault on a reused keep-alive
//! socket, which the server may have closed while it sat idle; that one
//! is retried once on a fresh socket.
//!
//! [`Lcg`] is the seeded generator behind the chaos campaigns' request
//! draws, so a given seed always produces the same request sequence.
//! [`spawn_sibling`] starts a server binary next to the running
//! executable and reads the address it bound.

use crate::http::{read_reply, RawReply};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The socket timeout of the one-shot helpers.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A reply as the one-shot helpers hand it out: [`read_reply`]'s
/// decoded reply with its de-chunked body as text.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code from the status line.
    pub status: u16,
    /// Body as text, any chunk framing removed.
    pub body: String,
    /// The reply as it was read.
    raw: RawReply,
}

impl HttpReply {
    /// The first value of header `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.raw.header(name)
    }
}

impl From<RawReply> for HttpReply {
    fn from(raw: RawReply) -> Self {
        HttpReply {
            status: raw.status,
            body: String::from_utf8_lossy(&raw.body()).into_owned(),
            raw,
        }
    }
}

/// One client connection to a server: a socket with one timeout that
/// connects on first use.
///
/// [`Conn::exchange`] writes one request and reads exactly one reply
/// through [`read_reply`]. The socket is dropped after a
/// `Connection: close` reply or after any error, so the next exchange
/// connects afresh. A fault on a *reused* socket is retried once on a
/// fresh one, because the server may have closed it idle or at its
/// per-connection request cap. A fault on a fresh socket is returned the
/// first time it happens.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// Bytes read past the last reply, kept for the next one.
    leftover: Vec<u8>,
}

impl Conn {
    /// A connection to `addr` that connects on first use. `timeout`
    /// bounds the connect and every read and write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Conn {
            addr,
            timeout,
            stream: None,
            leftover: Vec::new(),
        }
    }

    /// Writes `raw` and reads exactly one reply, returning its exact
    /// bytes with its status and `Connection: close` verdict.
    ///
    /// # Errors
    ///
    /// Connect and socket errors (a timeout is `WouldBlock` or
    /// `TimedOut`), a close before the reply is complete
    /// (`UnexpectedEof`), or a reply that is not HTTP (`InvalidData`).
    pub fn exchange(&mut self, raw: &[u8]) -> std::io::Result<RawReply> {
        let reused = self.stream.is_some();
        match self.exchange_once(raw) {
            Err(_) if reused => self.exchange_once(raw),
            outcome => outcome,
        }
    }

    fn exchange_once(&mut self, raw: &[u8]) -> std::io::Result<RawReply> {
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                self.leftover.clear();
                let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                stream.set_nodelay(true)?;
                stream
            }
        };
        stream.write_all(raw)?;
        let reply = read_reply(&mut stream, &mut self.leftover)?;
        if !reply.close {
            self.stream = Some(stream);
        }
        Ok(reply)
    }
}

/// Issues one request on a fresh connection (`Connection: close`).
///
/// # Errors
///
/// See [`raw_request`].
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpReply> {
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: dg-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, raw.as_bytes())
}

/// Writes `raw` bytes verbatim on a fresh [`Conn`] and returns the one
/// reply that comes back — the escape hatch the malformed-framing probes
/// use.
///
/// # Errors
///
/// Any [`Conn::exchange`] error.
pub fn raw_request(addr: SocketAddr, raw: &[u8]) -> std::io::Result<HttpReply> {
    Conn::new(addr, CLIENT_TIMEOUT)
        .exchange(raw)
        .map(HttpReply::from)
}

/// A deterministic linear-congruential generator (Knuth MMIX constants).
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1))
    }

    /// The next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// A value in `[0, bound)` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A server process started by [`spawn_sibling`], and the address from
/// its `listening on <addr>` banner.
#[derive(Debug)]
pub struct SpawnedServer {
    /// The running child; the caller owns its shutdown.
    pub child: Child,
    /// The address the server bound.
    pub addr: SocketAddr,
}

/// Spawns `binary` from the running executable's directory (where cargo
/// puts every binary of the workspace) and reads the address it bound
/// from its first stdout line.
///
/// # Errors
///
/// A missing binary, a failed spawn, or a missing or malformed banner.
/// A child that started is killed and reaped before the error returns,
/// so a failed start never leaves a server running.
pub fn spawn_sibling(binary: &str, args: &[String]) -> Result<SpawnedServer, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me
        .parent()
        .map(|dir| dir.join(binary))
        .filter(|p| p.exists())
        .ok_or_else(|| {
            format!(
                "{binary} not found next to {} (build dg-serve first)",
                me.display()
            )
        })?;
    spawn_with_banner(&path, args)
}

/// The spawn-and-read-banner half of [`spawn_sibling`].
fn spawn_with_banner(program: &Path, args: &[String]) -> Result<SpawnedServer, String> {
    let mut child = Command::new(program)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    match read_banner(&mut child) {
        Ok(addr) => Ok(SpawnedServer { child, addr }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("{}: {e}", program.display()))
        }
    }
}

fn read_banner(child: &mut Child) -> Result<SocketAddr, String> {
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("read banner: {e}"))?;
    line.trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected banner {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn lcg_is_deterministic_and_varies() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w.first() != w.last()));
        assert!(Lcg::new(1).below(10) < 10);
        assert_eq!(Lcg::new(1).below(0), 0);
    }

    /// Reads one request head (or whatever arrives before EOF).
    fn read_head(s: &mut TcpStream) -> Vec<u8> {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            match s.read(&mut byte) {
                Ok(1) => head.push(byte[0]),
                _ => break,
            }
        }
        head
    }

    /// A server that answers every request head with `reply`, closing
    /// each connection after its first reply unless `keep_alive`, until a
    /// connection sends `sentinel`; returns how many connections it served.
    fn test_server(
        reply: &'static [u8],
        keep_alive: bool,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            while let Ok((mut s, _)) = listener.accept() {
                let mut head = read_head(&mut s);
                if head.starts_with(b"sentinel") {
                    break;
                }
                served += 1;
                while !head.is_empty() && s.write_all(reply).is_ok() && keep_alive {
                    head = read_head(&mut s);
                }
            }
            served
        });
        (addr, handle)
    }

    /// Stops a [`test_server`] and returns its served count.
    fn stop(addr: SocketAddr, server: std::thread::JoinHandle<usize>) -> usize {
        let mut sentinel = TcpStream::connect(addr).expect("sentinel connect");
        sentinel.write_all(b"sentinel\r\n\r\n").expect("sentinel");
        server.join().expect("server thread")
    }

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        let (addr, server) = test_server(OK, true);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        for _ in 0..3 {
            let reply = conn.exchange(HEALTHZ).expect("reply");
            assert_eq!(reply.status, 200);
            assert!(reply.bytes.ends_with(b"\r\n\r\nok"));
        }
        drop(conn); // EOF ends the server's keep-alive loop
        assert_eq!(stop(addr, server), 1, "one connection only");
    }

    #[test]
    fn keep_alive_client_recovers_from_a_server_side_close() {
        // Each connection gets one reply, then a close without a
        // `Connection: close` header (as the server's per-connection
        // request cap or idle timeout would).
        let (addr, server) = test_server(OK, false);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        let a = conn.exchange(HEALTHZ).expect("first");
        // The reused socket is dead; the one retry on a fresh socket
        // must make this invisible.
        let b = conn.exchange(HEALTHZ).expect("second");
        assert_eq!((a.status, b.status), (200, 200));
        assert_eq!(stop(addr, server), 2, "one fresh socket per reply");
    }

    #[test]
    fn framed_reply_reader_preserves_pipelined_leftovers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            read_head(&mut s);
            // Two back-to-back framed responses in one write.
            s.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirstHTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n",
            )
            .expect("write");
            read_head(&mut s);
            read_head(&mut s); // until the client closes
        });
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        let first = conn.exchange(HEALTHZ).expect("first");
        assert_eq!(first.status, 200);
        assert!(first.bytes.ends_with(b"\r\n\r\nfirst"));
        let second = conn.exchange(HEALTHZ).expect("second");
        assert_eq!(second.status, 503);
        assert_eq!(second.header("retry-after"), Some("2"));
        assert!(conn.leftover.is_empty());
        drop(conn);
        server.join().expect("server thread");
    }

    #[test]
    fn deadline_expires_mid_body_as_deadline_expired() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                read_head(&mut s);
                // A head and part of the body, then a stall longer than
                // the client's timeout: the reply never completes.
                let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\npar");
                std::thread::sleep(Duration::from_millis(700));
            }
        });
        let err = Conn::new(addr, Duration::from_millis(250))
            .exchange(HEALTHZ)
            .expect_err("stalled response must not succeed");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err}"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn a_fault_on_a_fresh_socket_is_returned_after_one_accept() {
        // The server closes without a single reply byte.
        let (addr, server) = test_server(b"", false);
        let err = Conn::new(addr, Duration::from_secs(5))
            .exchange(HEALTHZ)
            .expect_err("a closed socket must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(stop(addr, server), 1, "a fresh-socket fault is not retried");
    }

    #[test]
    fn complete_garbage_reply_is_fatal_not_retried() {
        let (addr, server) = test_server(b"NOT HTTP AT ALL\r\n\r\nbody", false);
        let err = Conn::new(addr, Duration::from_secs(5))
            .exchange(HEALTHZ)
            .expect_err("garbage must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert_eq!(stop(addr, server), 1, "garbage is not retried");
    }

    /// Runs `script` under `/bin/sh` through the spawn seam. The script
    /// receives a pid file path as `$0`.
    fn spawn_script(tag: &str, script: &str) -> (Result<SpawnedServer, String>, Option<u32>) {
        let pid_file =
            std::env::temp_dir().join(format!("dg-spawn-{}-{tag}.pid", std::process::id()));
        let _ = std::fs::remove_file(&pid_file);
        let args = [
            "-c".to_owned(),
            script.to_owned(),
            pid_file.display().to_string(),
        ];
        let result = spawn_with_banner(Path::new("/bin/sh"), &args);
        let pid = std::fs::read_to_string(&pid_file)
            .ok()
            .and_then(|s| s.trim().parse().ok());
        let _ = std::fs::remove_file(&pid_file);
        (result, pid)
    }

    #[test]
    fn spawn_reaps_a_child_with_a_bad_banner() {
        let (result, pid) = spawn_script("bad", "echo $$ > \"$0\"; echo 'ready'; exec sleep 30");
        let err = result.expect_err("a wrong banner must fail the spawn");
        assert!(err.contains("unexpected banner"), "{err}");
        let pid = pid.expect("the stand-in recorded its pid");
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "pid {pid} outlived the failed spawn"
        );
    }

    #[test]
    fn spawn_reads_the_bound_address_from_the_banner() {
        let (result, _) = spawn_script("good", "echo 'listening on 127.0.0.1:9'; exec sleep 30");
        let mut spawned = result.expect("a well-formed banner spawns");
        assert_eq!(spawned.addr, "127.0.0.1:9".parse().expect("addr"));
        spawned.child.kill().expect("kill stand-in");
        spawned.child.wait().expect("reap stand-in");
    }

    #[test]
    fn reply_parser_reads_status_and_headers() {
        let wire =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nhi";
        let reply = read_reply(&mut &wire[..], &mut Vec::new()).expect("a framed reply");
        let reply = HttpReply::from(reply);
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.body, "hi");
        // A streamed reply's body arrives de-chunked.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n0\r\n\r\n";
        let reply = read_reply(&mut &wire[..], &mut Vec::new()).expect("a framed reply");
        assert_eq!(HttpReply::from(reply).body, "ab\n");
    }
}
