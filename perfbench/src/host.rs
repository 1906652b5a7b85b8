//! Host facts printed with every result, the process CPU clock used by the
//! attribution check, and the pinning of the host parallel engine.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The pinned calibration entry (keyed by core count) the library's
/// parallel engine reads instead of re-measuring per process.
const PINNED_CALIBRATION: &str = include_str!("../calibration.json");

/// What the engine was pinned to, for the result header.
pub struct EnginePin {
    pub threads: usize,
    pub calibration_path: PathBuf,
}

/// Pin the host parallel engine before any library call: `HC_THREADS` to
/// the host's parallelism, and `HC_CALIBRATION_PATH` to a file this
/// benchmark owns (next to its executable), seeded from the committed pin.
/// A calibration left elsewhere by another build profile can then not
/// change engagement decisions. Must run while the process is still
/// single-threaded.
pub fn pin_engine() -> EnginePin {
    let threads = nproc();
    std::env::set_var("HC_THREADS", threads.to_string());
    let dir = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let calibration_path = dir.join("perfbench-calibration.json");
    std::fs::write(&calibration_path, PINNED_CALIBRATION)
        .expect("the build directory must be writable for the calibration pin");
    std::env::set_var("HC_CALIBRATION_PATH", &calibration_path);
    EnginePin {
        threads,
        calibration_path,
    }
}

/// Whether the committed pin has an entry for this host's core count (if
/// not, the library measured one for this process).
pub fn calibration_pinned(cores: usize) -> bool {
    PINNED_CALIBRATION.contains(&format!("\"cores\":{cores},"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The highest-level CPU cache of cpu0, e.g. `L3 105 MiB`.
pub fn llc() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    match best {
        Some((level, size)) => match size.strip_suffix('K').and_then(|k| k.parse::<f64>().ok()) {
            Some(kib) => format!("L{level} {:.0} MiB", kib / 1024.0),
            None => format!("L{level} {size}"),
        },
        None => "unknown".into(),
    }
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), format!("{fstype} on {mount}")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, f)| f)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of this process so far, including
/// threads that have exited.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) and the clock id is a constant every Linux kernel
    // supports; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock must be readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process-CPU time of one call.
pub struct Timed<R> {
    pub value: R,
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

pub fn timed<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (cpu_seconds() - c0) * 1e3;
    Timed {
        value,
        wall_ms,
        cpu_ms,
    }
}
