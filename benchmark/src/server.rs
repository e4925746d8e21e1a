//! The `wcbk serve` child process, and what is read from it from outside:
//! `/metrics`, `/stats` and `/proc/<pid>/status`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wcbk_serve::http::client::Client;
use wcbk_serve::Json;

use crate::Error;

/// Server flags shared by every workload (besides `--addr` and a fresh
/// `--data-dir`): two workers, evented admission, and an engine cache cap
/// between the working sets of the handles and oneshot workloads.
pub const WORKERS: usize = 2;
pub const MAX_CONNECTIONS: usize = 64;
pub const ENGINE_CACHE_CAP: u64 = 110_000;

pub struct Server {
    child: Child,
    pub addr: String,
    data_dir: PathBuf,
}

impl Server {
    /// Spawns `bin serve` on a kernel-chosen port with a fresh data
    /// directory under `dir`, and waits for its listening banner.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Server, Error> {
        let data_dir = dir.join("data");
        let _ = fs::remove_dir_all(&data_dir);
        let log_path = dir.join("server.log");
        let log = fs::File::create(&log_path)?;
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--max-connections", &MAX_CONNECTIONS.to_string()])
            .args(["--engine-cache-cap", &ENGINE_CACHE_CAP.to_string()])
            .arg("--data-dir")
            .arg(&data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
            data_dir,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(&log_path).unwrap_or_default();
            // The banner may be read half-written: the address counts only
            // once the whitespace after it has arrived.
            if let Some(rest) = text.split("listening on http://").nth(1) {
                if let Some(end) = rest.find(char::is_whitespace) {
                    server.addr = rest[..end].to_owned();
                    return Ok(server);
                }
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(format!("server exited before listening ({status}): {text}").into());
            }
            if Instant::now() > deadline {
                return Err("server did not announce its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    pub fn connect(&self) -> Result<Client, Error> {
        Ok(Client::connect(&self.addr, Some(Duration::from_secs(120)))?)
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, Error> {
        self.status_mb("VmHWM:")
    }

    fn status_mb(&self, field: &str) -> Result<f64, Error> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no {field} in /proc status"))?;
        Ok(kb / 1024.0)
    }

    pub fn scrape(&self) -> Result<Scrape, Error> {
        let mut client = self.connect()?;
        let metrics = client.get("/metrics")?;
        let stats = client.get("/stats")?;
        if metrics.status != 200 || stats.status != 200 {
            return Err("scraping /metrics or /stats failed".into());
        }
        Ok(Scrape {
            text: metrics.body,
            stats: stats.json()?,
        })
    }

    /// Graceful shutdown; the data directory is removed afterwards.
    pub fn stop(mut self) -> Result<(), Error> {
        let asked = self
            .connect()
            .and_then(|mut c| Ok(c.post("/shutdown", "{}")?));
        let deadline = Instant::now() + Duration::from_secs(20);
        while asked.is_ok() && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        let _ = fs::remove_dir_all(&self.data_dir);
        Ok(())
    }

    fn kill(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One reading of the server's counters.
pub struct Scrape {
    text: String,
    pub stats: Json,
}

impl Scrape {
    /// The sample `name{labels}` (or bare `name` when `labels` is empty).
    pub fn value(&self, name: &str, labels: &str) -> f64 {
        let key = if labels.is_empty() {
            name.to_owned()
        } else {
            format!("{name}{{{labels}}}")
        };
        self.text
            .lines()
            .find_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                (k == key).then(|| v.parse().ok())?
            })
            .unwrap_or(0.0)
    }

    /// Cumulative `(upper bound, count)` buckets of histogram `name`.
    pub fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        self.text
            .lines()
            .filter_map(|l| {
                let rest = l.strip_prefix(&prefix)?;
                let (le, count) = rest.split_once("\"} ")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count.parse().ok()?))
            })
            .collect()
    }

    /// A number under `/stats` at `path` (e.g. `["engine_cache", "hits"]`).
    pub fn stat(&self, path: &[&str]) -> f64 {
        let mut node = &self.stats;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return 0.0,
            }
        }
        node.as_f64().unwrap_or(0.0)
    }
}

/// The `q`-quantile of the observations histogram `name` gained between
/// two scrapes, interpolated inside its bucket as `histogram_quantile()`
/// does.
pub fn quantile_delta(before: &Scrape, after: &Scrape, name: &str, q: f64) -> f64 {
    let b = before.buckets(name);
    let a = after.buckets(name);
    let delta: Vec<(f64, f64)> = a
        .iter()
        .map(|&(le, n)| {
            let prior = b.iter().find(|(l, _)| *l == le).map_or(0.0, |p| p.1);
            (le, n - prior)
        })
        .collect();
    let Some(&(_, total)) = delta.last() else {
        return 0.0;
    };
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut previous = (0.0, 0.0);
    for &(le, cumulative) in &delta {
        if cumulative >= rank {
            if le.is_infinite() {
                return previous.0;
            }
            let in_bucket = cumulative - previous.1;
            let fraction = if in_bucket > 0.0 {
                (rank - previous.1) / in_bucket
            } else {
                1.0
            };
            return previous.0 + (le - previous.0) * fraction;
        }
        previous = (le, cumulative);
    }
    previous.0
}
