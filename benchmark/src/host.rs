//! What the numbers were measured on: the header of every result file.

use std::path::Path;

use crate::json::Json;

/// Logical CPUs this process may use.  Counted from the affinity mask it
/// started with: `available_parallelism` reads the calling thread's current
/// mask, which [`pin_engine_threads`] narrows to one CPU.
pub fn nproc() -> usize {
    allowed_cpus().len().max(1)
}

/// Whether this binary was built without optimisation.
pub fn debug_build() -> bool {
    cfg!(debug_assertions)
}

/// The checked-out git revision, read from `.git` (no `git` binary needed);
/// `unknown` outside a repository, where the driver runs the benchmark.
pub fn git_revision(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|rev| rev.trim().to_owned())
            .unwrap_or_else(|_| format!("unborn {reference}")),
    }
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mountinfo`),
/// so a durable workload's numbers say whether a real disk was under them.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    // mountinfo: `id parent major:minor root mount-point options... - fstype source ...`
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype.to_owned())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// On-CPU time so far of every thread of this process, by thread name
/// (`/proc/self/task/*/schedstat`).  The engine is timed from outside, and
/// the scheduler's own account of who ran is as far outside as it gets: the
/// difference of two samples is what each thread burned in between, however
/// the engine classifies that time itself.
pub fn thread_cpu_ns() -> Vec<(u64, String, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(path.join("comm")).ok()?;
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            let run_ns = stat.split_whitespace().next()?.parse().ok()?;
            Some((tid, name.trim().to_owned(), run_ns))
        })
        .collect()
}

/// This thread's id as `/proc/self/task` names it.
pub fn current_tid() -> Option<u64> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// CPU affinity through the two libc calls that set and read it; `std` has
/// no equivalent, and the container has no `libc` crate to name them for us.
mod affinity {
    /// glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    /// CPUs thread `tid` (0 = the caller) may run on, ascending.
    pub fn get(tid: i32) -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of_val(&mask)` bytes passed as its size; the call writes
        // nothing beyond it and keeps no pointer.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restrict thread `tid` (0 = the caller) to `cpus`; `false` if the
    /// kernel refused (or `cpus` names nothing the mask can hold).
    pub fn set(tid: i32, cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed; the
        // call only reads it.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Scheduling priority, through the one libc call that sets it.
mod priority {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }

    /// `PRIO_PROCESS`: on Linux, the calling thread when `who` is 0.
    const PRIO_PROCESS: i32 = 0;

    /// Set the calling thread's nice value; `false` if the kernel refused.
    pub fn set_nice(nice: i32) -> bool {
        // SAFETY: takes three integers, touches no memory of ours.
        unsafe { setpriority(PRIO_PROCESS, 0, nice) == 0 }
    }
}

/// Whether [`start`] could raise this process's priority.
static PRIORITY_RAISED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

/// Call first thing in `main`, before any thread is spawned or pinned:
/// remembers the CPUs the process was given, and raises its priority as far
/// as it is allowed (nice −20; threads and child processes inherit it).
///
/// On a small shared host, whatever else runs in the guest — a daemon, the
/// harness that started the benchmark — takes its time slices from a pinned
/// producer or executor.  With the sleeping open-loop generator at nice 0 a
/// busy neighbour on its CPU made it seconds late; at nice −20 the generator
/// preempts it on every tick.  Refused (not root)?  Then the run goes on at
/// the priority it has, and the header says so.
pub fn start() {
    allowed_cpus();
    PRIORITY_RAISED.get_or_init(|| priority::set_nice(-20));
}

/// The CPUs this process was allowed when it started (before any pinning).
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| affinity::get(0))
}

/// Give the calling (producer) thread and each of the engine's `executors`
/// executor threads a CPU of its own, as far as the host has them: producer
/// on the first allowed CPU, executor `i` on the `(1 + i)`-th, wrapping.  The
/// WAL writer may run anywhere.  Call once the engine's pool is spawned.
///
/// Left to itself the kernel's wake-affine placement often stacks the
/// producer and a lone executor on one CPU, where they run in lockstep while
/// the other CPU idles — and whether it does varies from run to run, which
/// made closed-loop throughput bimodal (sl_dep: ~450 vs ~535 k/s).  Placement
/// is the deployer's to choose; the benchmark chooses it, from outside, so
/// that it measures the engine and not the scheduler's mood.  Returns whether
/// every thread was placed.
pub fn pin_engine_threads(executors: usize) -> bool {
    let cpus = allowed_cpus();
    if cpus.is_empty() || !affinity::set(0, &cpus[..1]) {
        return false;
    }
    // A thread names itself once it runs, so one spawned a moment ago may
    // still carry the process's name: look again until all have theirs.
    let mut placed = 0;
    for _ in 0..200 {
        placed = 0;
        for (tid, name, _) in thread_cpu_ns() {
            if let Some(index) = name.strip_prefix("tstream-exec-") {
                if let Ok(index) = index.parse::<usize>() {
                    let cpu = cpus[(1 + index) % cpus.len()];
                    placed += affinity::set(tid as i32, &[cpu]) as usize;
                }
            } else if name.starts_with("tstream-wal") {
                // Spawned by a pinned thread, it inherited that one CPU.
                affinity::set(tid as i32, cpus);
            }
        }
        if placed >= executors {
            break;
        }
        // Waiting for another thread to reach its first instruction: there
        // is nothing to synchronise on from outside the engine.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    placed >= executors
}

/// The host part of a result header.
pub fn header(repo: &Path, scratch: &Path) -> Vec<(String, Json)> {
    vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("git_revision".into(), Json::str(git_revision(repo))),
        (
            "build_profile".into(),
            Json::str(if debug_build() { "debug" } else { "release" }),
        ),
        ("rustc".into(), Json::str(env!("BENCH_RUSTC_VERSION"))),
        (
            "scratch_filesystem".into(),
            Json::str(filesystem_of(scratch)),
        ),
        (
            "allowed_cpus".into(),
            Json::Arr(
                allowed_cpus()
                    .iter()
                    .map(|&c| Json::Num(c as f64))
                    .collect(),
            ),
        ),
        (
            "priority_raised".into(),
            Json::Bool(PRIORITY_RAISED.get().copied().unwrap_or(false)),
        ),
        (
            "placement".into(),
            Json::str("producer on the first allowed CPU, executor i on the (1+i)-th, wrapping"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_are_filled_in() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
        assert_eq!(git_revision(Path::new("/nonexistent")), "unknown");
        assert!(env!("BENCH_RUSTC_VERSION").starts_with("rustc "));
        let me = current_tid().expect("a thread id");
        assert!(thread_cpu_ns().iter().any(|(tid, _, _)| *tid == me));
    }
}
