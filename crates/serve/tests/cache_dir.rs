//! The `--cache-dir` disk tier driven through real shards: what a shard
//! leaves on disk (one log segment) after streaming droop sweeps and
//! answering a wide impedance sweep, what a second shard on the same
//! directory replays, and that a directory belongs to the one server
//! started with it.

use dg_serve::client::{http_request, HttpReply};
use dg_serve::{Server, ServerConfig, ServerHandle};
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// Two distinct droop-sweep grids: 64 and 128 fresh lanes.
const GRID_64: &str = r#"{"variant":"gated","delta":{"start_a":2,"stop_a":50,"points":64}}"#;
const GRID_128: &str = r#"{"variant":"bypassed","delta":{"start_a":2,"stop_a":50,"points":128}}"#;

/// The largest impedance grid the route admits, decimated to 20 points
/// on the wire.
const WIDE_SWEEP: &str = r#"{"variant":"gated","points":20000,"decimate":1000}"#;

fn start(dir: &Path) -> ServerHandle {
    start_with(Some(dir.to_path_buf()))
}

fn start_with(cache_dir: Option<PathBuf>) -> ServerHandle {
    Server::start(ServerConfig {
        workers: 2,
        queue_depth: 16,
        read_timeout_ms: 5_000,
        cache_dir,
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
}

/// A fresh, empty directory for one test.
fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dg-serve-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn droop_sweep(addr: SocketAddr, grid: &str) -> HttpReply {
    let reply = http_request(addr, "POST", "/v1/droop_sweep", Some(grid)).expect("droop sweep");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"));
    reply
}

/// Every file under `root`, recursively.
fn files_under(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("readable cache dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// One unlabelled counter from a shard's `/metrics` text.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let reply = http_request(addr, "GET", "/metrics", None).expect("metrics");
    reply
        .body
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

#[test]
fn cache_dir_holds_only_response_bodies_and_a_restarted_shard_replays_them() {
    let dir = fresh_dir("cache-dir");

    let first = start(&dir);
    let addr = first.local_addr();
    // Computed sweeps stream progress lines ahead of their result line.
    let computed = [droop_sweep(addr, GRID_64), droop_sweep(addr, GRID_128)];
    for reply in &computed {
        assert!(reply.body.lines().count() >= 2, "{}", reply.body);
    }
    let result_128 = computed[1].body.lines().last().expect("result line");
    let sweep = http_request(addr, "POST", "/v1/sweep", Some(WIDE_SWEEP)).expect("sweep");
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    // One record per distinct response and nothing else: no per-lane DC
    // states, no ladder coefficients, no profile of the client's grid.
    assert_eq!(metric(addr, "dg_disk_cache_entries"), 3);
    assert_eq!(metric(addr, "dg_disk_cache_stores_total"), 3);
    assert!(first.shutdown().clean);

    // All three records sit in one log segment, the only file.
    let files = files_under(&dir);
    assert_eq!(files.len(), 1, "{files:#?}");
    let resp = dir.join("resp");
    for file in &files {
        assert_eq!(file.parent(), Some(resp.as_path()), "{file:?}");
        assert!(
            file.extension().is_some_and(|x| x == "log"),
            "{file:?} is not a log segment"
        );
    }

    // A fresh shard on the same directory has an empty memory tier, so
    // the replay's result line comes from disk: head plus that one line,
    // byte-identical to what the first shard computed.
    let second = start(&dir);
    let replay = droop_sweep(second.local_addr(), GRID_128);
    assert_eq!(
        replay.body.lines().collect::<Vec<_>>(),
        [result_128],
        "a disk replay streams only the first shard's result line"
    );
    assert!(metric(second.local_addr(), "dg_disk_cache_hits_total") >= 1);
    assert!(second.shutdown().clean);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_server_without_cache_dir_writes_nothing_into_another_servers_directory() {
    let dir = fresh_dir("owned-dir");
    let owner = start(&dir);
    let memory_only = start_with(None);

    // A droop sweep no other test sends: the memory-only server computes
    // and caches it, and the owner never sees it.
    let grid = r#"{"variant":"gated","quiescent_a":3,"delta":{"start_a":7,"stop_a":9,"points":3}}"#;
    droop_sweep(memory_only.local_addr(), grid);
    assert!(memory_only.shutdown().clean);
    assert_eq!(
        files_under(&dir),
        Vec::<PathBuf>::new(),
        "a server without --cache-dir wrote into another server's directory"
    );
    assert_eq!(metric(owner.local_addr(), "dg_disk_cache_stores_total"), 0);
    assert!(owner.shutdown().clean);
    let _ = fs::remove_dir_all(&dir);
}
