//! Host information recorded alongside benchmark results.

/// A description of the machine a benchmark ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Number of logical CPUs the process may use.
    pub logical_cpus: usize,
    /// Operating system (compile-time constant).
    pub os: &'static str,
    /// Architecture (compile-time constant).
    pub arch: &'static str,
}

impl HostInfo {
    /// Collects information about the current host.
    pub fn collect() -> Self {
        HostInfo {
            logical_cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
        }
    }

    /// The thread counts the scalability figures should sweep on this host:
    /// the paper's 1–16 ladder, truncated to the available CPUs (always at
    /// least `[1]`, and always including the full CPU count).
    pub fn thread_ladder(&self, max: usize) -> Vec<usize> {
        let cap = self.logical_cpus.min(max).max(1);
        let mut ladder: Vec<usize> = [1, 2, 4, 8, 16, 32]
            .iter()
            .copied()
            .filter(|&t| t <= cap)
            .collect();
        if !ladder.contains(&cap) {
            ladder.push(cap);
        }
        ladder
    }
}

impl std::fmt::Display for HostInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} with {} logical CPUs",
            self.os, self.arch, self.logical_cpus
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_reports_at_least_one_cpu() {
        let info = HostInfo::collect();
        assert!(info.logical_cpus >= 1);
        assert!(!info.to_string().is_empty());
    }

    #[test]
    fn thread_ladder_is_monotone_and_capped() {
        let info = HostInfo {
            logical_cpus: 12,
            os: "linux",
            arch: "x86_64",
        };
        let ladder = info.thread_ladder(16);
        assert_eq!(ladder, vec![1, 2, 4, 8, 12]);
        let small = HostInfo {
            logical_cpus: 1,
            os: "linux",
            arch: "x86_64",
        };
        assert_eq!(small.thread_ladder(16), vec![1]);
        let big = HostInfo {
            logical_cpus: 64,
            os: "linux",
            arch: "x86_64",
        };
        assert_eq!(big.thread_ladder(16), vec![1, 2, 4, 8, 16]);
    }
}
