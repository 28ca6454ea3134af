//! Command-line / environment configuration for the `kvcached` binary.
//!
//! Kept in the library (rather than the binary) so the flag and env-var
//! handling is unit-testable. Flags win over environment variables, which
//! win over defaults:
//!
//! | Flag | Env | Default |
//! |---|---|---|
//! | `--engine rp\|lock` | `RP_KV_ENGINE` | `rp` |
//! | `--port N` | `RP_KV_PORT` | `11211` |
//! | `--workers N` | `RP_KV_WORKERS` | `2` |
//! | `--read-side qsbr\|ebr` | `RP_KV_READ_SIDE` | `qsbr` |
//! | `--capacity N` | `RP_KV_CAPACITY` | `1048576` |
//! | `--drain-timeout-ms N` | `RP_KV_DRAIN_TIMEOUT_MS` | `5000` |
//! | `--idle-timeout-ms N` (0 = off) | `RP_KV_IDLE_TIMEOUT_MS` | `0` |
//! | `--max-requests-per-conn N` (0 = off) | `RP_KV_MAX_REQUESTS_PER_CONN` | `0` |
//! | `--max-conns N` (0 = off) | `RP_KV_MAX_CONNS` | `0` |
//! | `--max-bytes N` (0 = off) | `RP_KV_MAX_BYTES` | `0` |
//! | `--stats on\|off` | `RP_KV_STATS` | `on` |
//!
//! `--read-side` selects the RCU flavor serving GETs: `qsbr` (the default
//! — barrier-free lookups, quiescent states announced per event batch) or
//! `ebr` (per-lookup guards). The relativistic engine's index is resized
//! by its writers, under either flavor, and none of them waits for
//! readers; resizing has no settings.
//!
//! `--engine` picks one of the paper's two memcached engines: `rp`, the
//! relativistic table ([`RpEngine`]), or `lock`, stock memcached's global
//! lock ([`LockEngine`]).
//!
//! `--stats` takes `on`/`off`, `1`/`0`, `true`/`false` or `yes`/`no`, in
//! any case; any other value is refused with the usage text, as a bad
//! `--engine` or `--read-side` is.
//!
//! [`ServerOptions::parse`] writes each setting into the one field that
//! holds it: the engine's in [`ServerOptions`], the port and read side in
//! its [`ServerConfig`], the reactor's in that config's
//! [`NetConfig`](rp_net::NetConfig).

use std::sync::Arc;
use std::time::Duration;

use crate::engine::{CacheEngine, ReadSide};
use crate::server::ServerConfig;
use crate::{LockEngine, RpEngine};

/// Which storage engine to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The relativistic table ([`RpEngine`]).
    Rp,
    /// Global-lock baseline ([`LockEngine`]).
    Lock,
}

/// Everything `kvcached` is told, read by its `main`: it builds the engine
/// from `engine` and `capacity` ([`ServerOptions::build_engine`]), switches
/// `rp-obs` timing by `stats`, and starts
/// [`EventServer`](crate::EventServer) with `server`.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Storage engine.
    pub engine: EngineKind,
    /// Item capacity.
    pub capacity: usize,
    /// `rp-obs` telemetry timers (`--stats off` drops the two `Instant`
    /// reads per request; untimed counters stay on either way).
    pub stats: bool,
    /// The server's port, read side and reactor settings.
    pub server: ServerConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            engine: EngineKind::Rp,
            capacity: 1 << 20,
            stats: true,
            server: ServerConfig {
                port: 11211,
                ..ServerConfig::default()
            },
        }
    }
}

/// Usage text for `kvcached --help`.
pub const USAGE: &str = "\
kvcached — the relativist cache server

USAGE:
    kvcached [FLAGS]

FLAGS (each falls back to the env var in brackets, then to the default):
    --engine rp|lock              storage engine                [RP_KV_ENGINE, rp]
    --port N                      TCP port, 0 = pick free       [RP_KV_PORT, 11211]
    --workers N                   reactor worker threads        [RP_KV_WORKERS, 2]
    --read-side qsbr|ebr          GET read-side RCU flavor      [RP_KV_READ_SIDE, qsbr]
    --capacity N                  max items                     [RP_KV_CAPACITY, 1048576]
    --drain-timeout-ms N          graceful shutdown budget      [RP_KV_DRAIN_TIMEOUT_MS, 5000]
    --idle-timeout-ms N           reap idle connections, 0=off  [RP_KV_IDLE_TIMEOUT_MS, 0]
    --max-requests-per-conn N     per-connection budget, 0=off  [RP_KV_MAX_REQUESTS_PER_CONN, 0]
    --max-conns N                 connection admission wall, 0=off  [RP_KV_MAX_CONNS, 0]
    --max-bytes N                 global buffered-byte budget, 0=off  [RP_KV_MAX_BYTES, 0]
    --stats on|off                telemetry latency timers      [RP_KV_STATS, on]
    --help                        print this text
";

impl ServerOptions {
    /// Parses `args` (without the program name), falling back to `env` for
    /// unset flags. `env` is injected so tests need not mutate the process
    /// environment.
    pub fn parse(
        args: &[String],
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<ServerOptions, String> {
        let mut opts = ServerOptions::default();

        // Environment layer first, flags override below.
        let mut engine = env("RP_KV_ENGINE");
        let mut port = env("RP_KV_PORT");
        let mut workers = env("RP_KV_WORKERS");
        let mut read_side = env("RP_KV_READ_SIDE");
        let mut capacity = env("RP_KV_CAPACITY");
        let mut drain_ms = env("RP_KV_DRAIN_TIMEOUT_MS");
        let mut idle_timeout_ms = env("RP_KV_IDLE_TIMEOUT_MS");
        let mut max_requests = env("RP_KV_MAX_REQUESTS_PER_CONN");
        let mut max_conns = env("RP_KV_MAX_CONNS");
        let mut max_bytes = env("RP_KV_MAX_BYTES");
        let mut stats = env("RP_KV_STATS");

        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            if flag == "--help" || flag == "-h" {
                return Err(USAGE.to_string());
            }
            let slot = match flag.as_str() {
                "--engine" => &mut engine,
                "--port" => &mut port,
                "--workers" => &mut workers,
                "--read-side" => &mut read_side,
                "--capacity" => &mut capacity,
                "--drain-timeout-ms" => &mut drain_ms,
                "--idle-timeout-ms" => &mut idle_timeout_ms,
                "--max-requests-per-conn" => &mut max_requests,
                "--max-conns" => &mut max_conns,
                "--max-bytes" => &mut max_bytes,
                "--stats" => &mut stats,
                other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
            };
            let Some(value) = iter.next() else {
                return Err(format!("flag {flag} requires a value"));
            };
            *slot = Some(value.clone());
        }

        if let Some(v) = engine {
            opts.engine = match v.as_str() {
                "rp" => EngineKind::Rp,
                "lock" => EngineKind::Lock,
                other => return Err(format!("bad engine {other:?} (rp | lock)\n\n{USAGE}")),
            };
        }
        if let Some(v) = port {
            opts.server.port = parse_num(&v, "--port")?;
        }
        if let Some(v) = workers {
            opts.server.net.workers = parse_num::<usize>(&v, "--workers")?.max(1);
        }
        if let Some(v) = read_side {
            opts.server.read_side = ReadSide::parse(&v).map_err(|e| format!("{e}\n\n{USAGE}"))?;
        }
        if let Some(v) = capacity {
            opts.capacity = parse_num::<usize>(&v, "--capacity")?.max(1);
        }
        if let Some(v) = drain_ms {
            opts.server.net.drain_timeout =
                Duration::from_millis(parse_num(&v, "--drain-timeout-ms")?);
        }
        if let Some(v) = idle_timeout_ms {
            let ms: u64 = parse_num(&v, "--idle-timeout-ms")?;
            opts.server.net.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(v) = max_requests {
            let n: u64 = parse_num(&v, "--max-requests-per-conn")?;
            opts.server.net.max_requests_per_conn = (n > 0).then_some(n);
        }
        if let Some(v) = max_conns {
            let n: usize = parse_num(&v, "--max-conns")?;
            opts.server.net.max_connections = if n > 0 { n } else { usize::MAX };
        }
        if let Some(v) = max_bytes {
            let n: usize = parse_num(&v, "--max-bytes")?;
            opts.server.net.max_total_bytes = if n > 0 { n } else { usize::MAX };
        }
        if let Some(v) = stats {
            opts.stats = match v.trim().to_ascii_lowercase().as_str() {
                "on" | "1" | "true" | "yes" => true,
                "off" | "0" | "false" | "no" => false,
                other => return Err(format!("bad stats value {other:?} (on | off)\n\n{USAGE}")),
            };
        }
        Ok(opts)
    }

    /// Builds the configured engine.
    pub fn build_engine(&self) -> Arc<dyn CacheEngine> {
        match self.engine {
            EngineKind::Rp => Arc::new(RpEngine::with_capacity(self.capacity)),
            EngineKind::Lock => Arc::new(LockEngine::with_capacity(self.capacity)),
        }
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("bad numeric value {value:?} for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_nothing_is_given() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.engine, EngineKind::Rp);
        assert_eq!(opts.build_engine().name(), "rp");
        assert_eq!(opts.server.port, 11211);
    }

    #[test]
    fn flags_parse() {
        let opts = ServerOptions::parse(
            &strings(&[
                "--engine",
                "lock",
                "--workers",
                "4",
                "--port",
                "0",
                "--drain-timeout-ms",
                "250",
            ]),
            &no_env,
        )
        .unwrap();
        assert_eq!(opts.engine, EngineKind::Lock);
        assert_eq!(opts.server.net.workers, 4);
        assert_eq!(opts.server.port, 0);
        assert_eq!(opts.server.net.drain_timeout, Duration::from_millis(250));
    }

    #[test]
    fn env_fills_in_and_flags_override() {
        let env = |name: &str| match name {
            "RP_KV_ENGINE" => Some("lock".to_string()),
            "RP_KV_WORKERS" => Some("8".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&strings(&["--engine", "rp"]), &env).unwrap();
        assert_eq!(opts.engine, EngineKind::Rp, "flag beats env");
        assert_eq!(opts.server.net.workers, 8, "env beats default");
    }

    #[test]
    fn the_maintainer_has_no_settings() {
        for gone in [
            "--maint",
            "--maint-workers",
            "--maint-fairness-slice",
            "--maint-reclaim-threshold",
            "--maint-idle-wakeup-ms",
        ] {
            let refused = ServerOptions::parse(&strings(&[gone, "2"]), &no_env);
            assert!(refused.unwrap_err().starts_with("unknown flag"), "{gone}");
        }
        // Nor does the environment reach it: every variable read is a flag's.
        let env = |name: &str| -> Option<String> {
            assert!(!name.starts_with("RP_KV_MAINT"), "{name} read");
            None
        };
        ServerOptions::parse(&[], &env).unwrap();
        let flags = USAGE.lines().filter(|l| l.trim_start().starts_with("--"));
        assert_eq!(flags.count(), 11 + 1, "eleven flags and --help");
    }

    #[test]
    fn read_side_parses_from_flag_and_env() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert_eq!(opts.server.read_side, ReadSide::Qsbr, "qsbr is the default");
        let opts = ServerOptions::parse(&strings(&["--read-side", "ebr"]), &no_env).unwrap();
        assert_eq!(opts.server.read_side, ReadSide::Ebr);
        let env = |name: &str| match name {
            "RP_KV_READ_SIDE" => Some("ebr".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert_eq!(opts.server.read_side, ReadSide::Ebr, "env beats default");
        let opts = ServerOptions::parse(&strings(&["--read-side", "QSBR"]), &env).unwrap();
        assert_eq!(opts.server.read_side, ReadSide::Qsbr, "flag beats env");
        let refused = ServerOptions::parse(&strings(&["--read-side", "hazard"]), &no_env);
        assert!(refused.unwrap_err().ends_with(USAGE));
    }

    #[test]
    fn defensive_limits_parse_with_zero_meaning_off() {
        let net = ServerOptions::parse(&[], &no_env).unwrap().server.net;
        assert_eq!(net.idle_timeout, None);
        assert_eq!(net.max_requests_per_conn, None);
        let net = ServerOptions::parse(
            &strings(&[
                "--idle-timeout-ms",
                "1500",
                "--max-requests-per-conn",
                "10000",
            ]),
            &no_env,
        )
        .unwrap()
        .server
        .net;
        assert_eq!(net.idle_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(net.max_requests_per_conn, Some(10_000));
        let env = |name: &str| match name {
            "RP_KV_IDLE_TIMEOUT_MS" => Some("0".to_string()),
            "RP_KV_MAX_REQUESTS_PER_CONN" => Some("7".to_string()),
            _ => None,
        };
        let net = ServerOptions::parse(&[], &env).unwrap().server.net;
        assert_eq!(net.idle_timeout, None, "0 disables");
        assert_eq!(net.max_requests_per_conn, Some(7));
    }

    #[test]
    fn admission_limits_parse_with_zero_meaning_off() {
        let net = ServerOptions::parse(&[], &no_env).unwrap().server.net;
        assert_eq!(net.max_connections, usize::MAX);
        assert_eq!(net.max_total_bytes, usize::MAX);
        let net = ServerOptions::parse(
            &strings(&["--max-conns", "10000", "--max-bytes", "67108864"]),
            &no_env,
        )
        .unwrap()
        .server
        .net;
        assert_eq!(net.max_connections, 10_000);
        assert_eq!(net.max_total_bytes, 64 << 20);
        let env = |name: &str| match name {
            "RP_KV_MAX_CONNS" => Some("0".to_string()),
            "RP_KV_MAX_BYTES" => Some("1024".to_string()),
            _ => None,
        };
        let net = ServerOptions::parse(&[], &env).unwrap().server.net;
        assert_eq!(net.max_connections, usize::MAX, "0 disables the wall");
        assert_eq!(net.max_total_bytes, 1024, "env beats default");
    }

    #[test]
    fn stats_toggle_parses_from_flag_and_env() {
        let opts = ServerOptions::parse(&[], &no_env).unwrap();
        assert!(opts.stats, "telemetry defaults on");
        let opts = ServerOptions::parse(&strings(&["--stats", "off"]), &no_env).unwrap();
        assert!(!opts.stats);
        let env = |name: &str| match name {
            "RP_KV_STATS" => Some("0".to_string()),
            _ => None,
        };
        let opts = ServerOptions::parse(&[], &env).unwrap();
        assert!(!opts.stats, "env beats default");
        let opts = ServerOptions::parse(&strings(&["--stats", "on"]), &env).unwrap();
        assert!(opts.stats, "flag beats env");
        for (value, on) in [
            ("ON", true),
            ("1", true),
            ("True", true),
            ("yes", true),
            ("Off", false),
            ("0", false),
            ("FALSE", false),
            ("no", false),
        ] {
            let opts = ServerOptions::parse(&strings(&["--stats", value]), &no_env).unwrap();
            assert_eq!(opts.stats, on, "--stats {value}");
        }
        // A typo is refused, not read as "on".
        let refused = ServerOptions::parse(&strings(&["--stats", "offf"]), &no_env);
        assert!(refused.unwrap_err().ends_with(USAGE));
        let env = |name: &str| match name {
            "RP_KV_STATS" => Some("of".to_string()),
            _ => None,
        };
        let refused = ServerOptions::parse(&[], &env);
        assert!(refused.unwrap_err().starts_with("bad stats value"));
    }

    #[test]
    fn bad_values_report_errors() {
        assert!(ServerOptions::parse(&strings(&["--engine", "redis"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--port", "eleven"]), &no_env).is_err());
        let gone = ServerOptions::parse(&strings(&["--mode", "event-loop"]), &no_env);
        assert!(gone.unwrap_err().starts_with("unknown flag"));
        assert!(ServerOptions::parse(&strings(&["--port"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--bogus", "1"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--stats", "offf"]), &no_env).is_err());
        assert!(ServerOptions::parse(&strings(&["--stats", ""]), &no_env).is_err());
        let usage = ServerOptions::parse(&strings(&["--help"]), &no_env).unwrap_err();
        assert!(usage.contains("--drain-timeout-ms"));
    }

    #[test]
    fn built_engines_match_the_request() {
        let opts = ServerOptions::parse(&strings(&["--engine", "rp"]), &no_env).unwrap();
        assert_eq!(opts.build_engine().name(), "rp");
        let opts = ServerOptions::parse(&strings(&["--engine", "lock"]), &no_env).unwrap();
        assert_eq!(opts.build_engine().name(), "default");
    }

    #[test]
    fn the_sharded_and_split_order_engines_are_gone() {
        for gone in [
            ["--engine", "rp-shard"],
            ["--engine", "splitorder"],
            ["--shards", "4"],
        ] {
            let refused = ServerOptions::parse(&strings(&gone), &no_env).unwrap_err();
            assert!(refused.ends_with(USAGE), "{gone:?}: {refused}");
        }
        let refused = ServerOptions::parse(&strings(&["--engine", "rp-shard"]), &no_env);
        assert!(refused.unwrap_err().starts_with("bad engine"));
        let refused = ServerOptions::parse(&strings(&["--shards", "4"]), &no_env);
        assert!(refused.unwrap_err().starts_with("unknown flag"));
        // Nor does the environment name a shard count.
        let env = |name: &str| -> Option<String> {
            assert!(!name.contains("SHARD"), "{name} read");
            None
        };
        ServerOptions::parse(&[], &env).unwrap();
    }
}
