//! What the benchmark reads about its host: the fingerprint printed
//! with every result, the peak resident set, and the host's speed
//! relative to the reference host.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use anonring_bench::json::json_escape;

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| first_line(&s))
        .unwrap_or_else(|_| "unknown".to_string())
}

fn rustc() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| first_line(&String::from_utf8_lossy(&out.stdout)))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out revision, read from `.git` under `root` without
/// running git (a checkout without `.git` reads `"unknown"`).
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = first_line(&head);
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return first_line(&rev);
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line: nproc, CPU model, kernel, rustc version, git revision,
/// workload and seed.
#[must_use]
pub fn fingerprint(root: &Path, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"fingerprint\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \
         \"rustc\": \"{}\", \"git\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {}}}}}",
        json_escape(&cpu_model()),
        json_escape(&kernel()),
        json_escape(&rustc()),
        json_escape(&git_revision(root)),
        u8::from(trace)
    )
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A Linux `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU.
///
/// On one CPU a thread that wakes another never waits for a second
/// virtual CPU to be scheduled by the hypervisor, which on a shared host
/// is what makes cross-CPU wake-ups slow by turns.
///
/// # Errors
///
/// The affinity calls fail.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: both calls read or write exactly one `CpuSet`, whose size
    // they are given, through a valid pointer; pid 0 is the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if got != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if set != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has run so far, all its threads together, the
/// ended ones included.
///
/// On a virtual machine that accounts steal time (Linux with
/// `PARAVIRT_TIME_ACCOUNTING`, as on the reference host), time the
/// hypervisor gives to other guests is not charged, so this clock reads
/// the program's own work where a wall clock also reads the neighbours'.
#[must_use]
pub fn cpu_time() -> Duration {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) through a valid,
    // exclusively borrowed pointer.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(now.tv_sec).unwrap_or(0),
        u32::try_from(now.tv_nsec).unwrap_or(0),
    )
}

/// Steps of one calibration sample (about 15 ms on the reference host).
const CALIBRATION_STEPS: u64 = 300_000;

/// Events the calibration kernel keeps.
const EVENT_RING: usize = 4096;

/// Calibration rate of the reference host (2-vCPU Xeon VM), steps per
/// second: the speed that [`Speed`] factors are relative to.
pub const REFERENCE_RATE: f64 = 2.1e7;

/// One sample of the calibration kernel, in steps per second: a fixed
/// miniature message-passing simulation (64 mailboxes of boxed messages,
/// a pseudo-random delivery order, an event ring) with the allocation,
/// queue and branch mix of the simulator engines. It is the benchmark's
/// own code, so no change to the repository moves it.
#[must_use]
pub fn calibration_rate() -> f64 {
    const N: usize = 64;
    let mut inbox: Vec<VecDeque<Box<[u64; 3]>>> = (0..N as u64)
        .map(|i| VecDeque::from([Box::new([i, 0, 0])]))
        .collect();
    // A ring of recent events rather than a growing log, so sampling
    // adds nothing to the process's peak resident set.
    let mut events = vec![(0u64, 0usize, 0usize); EVENT_RING];
    let mut x = 0x9e37_u64;
    let began = Instant::now();
    for step in 0..black_box(CALIBRATION_STEPS) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut at = (x >> 33) as usize % N;
        let message = loop {
            // N messages circulate, so some mailbox is always nonempty.
            if let Some(message) = inbox[at].pop_front() {
                break message;
            }
            at = (at + 1) % N;
        };
        let to = if message[0] & 1 == 0 {
            (at + 1) % N
        } else {
            (at + N - 1) % N
        };
        events[step as usize % EVENT_RING] = (step, at, to);
        inbox[to].push_back(Box::new([
            message[0].wrapping_add(x),
            message[1] ^ step,
            message[2] + 1,
        ]));
    }
    black_box(&events);
    CALIBRATION_STEPS as f64 / began.elapsed().as_secs_f64()
}

/// One sample of the host's speed relative to the reference host.
#[must_use]
pub fn speed_now() -> f64 {
    calibration_rate() / REFERENCE_RATE
}

/// The host's speed relative to the reference host, sampled through a
/// run.
///
/// A shared host changes speed by tens of percent every few seconds
/// (turbo frequency, neighbours on the same cores), which moves every
/// CPU-bound timing together. Dividing a throughput by a sample taken
/// just before it, or multiplying a time by it, reports the measurement
/// in reference-host units, so runs made in different host states agree.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Takes one sample and returns it.
    pub fn sample(&mut self) -> f64 {
        let speed = speed_now();
        self.samples.push(speed);
        speed
    }

    /// Every sample taken.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The median sample (1 before any sample).
    #[must_use]
    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.samples)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{cpu_time, pin_to_one_cpu};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_time_counts_work_done() {
        let before = cpu_time();
        let began = Instant::now();
        while began.elapsed() < Duration::from_millis(30) {
            black_box(began);
        }
        let spent = cpu_time() - before;
        assert!(spent >= Duration::from_millis(10), "{spent:?}");
    }

    #[test]
    fn a_pinned_thread_and_its_children_see_one_cpu() {
        let seen = std::thread::spawn(|| {
            pin_to_one_cpu().expect("pinning works");
            std::thread::spawn(std::thread::available_parallelism)
                .join()
                .expect("child thread ran")
        })
        .join()
        .expect("pinned thread ran")
        .expect("parallelism is known");
        assert_eq!(seen.get(), 1);
    }
}
