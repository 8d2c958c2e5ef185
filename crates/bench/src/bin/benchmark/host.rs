//! The host the benchmark runs on: CPU pinning and `/proc` readers.
//!
//! The conservative scheduler runs one simulated-processor thread at a
//! time, so where the OS places those threads decides the handoff cost
//! (see README.md: water/RT 0.086–0.377 s unpinned, 0.073–0.085 s
//! pinned). Every simulator measurement therefore runs on one CPU.

/// `cpu_set_t` is 1024 bits on every Linux libc.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this process (and every thread or child it later creates)
/// to `cpus`.
#[cfg(target_os = "linux")]
pub fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return Err(format!("cpu {cpu} does not fit a cpu_set_t"));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialized buffer of exactly the byte
    // length passed; pid 0 names the calling thread; the kernel only
    // reads the buffer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpus:?}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
pub fn set_affinity(_cpus: &[usize]) -> Result<(), String> {
    Err("CPU pinning needs Linux sched_setaffinity".to_string())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the kernel, so the next cell
/// starts from the heap a fresh process would have.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only releases memory malloc holds free.
    unsafe {
        malloc_trim(0);
    }
}

/// Parses a kernel CPU list such as `0-1,4`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    status_field("Cpus_allowed_list:")
        .and_then(|l| parse_cpu_list(&l))
        .filter(|c| !c.is_empty())
        .ok_or_else(|| "cannot read Cpus_allowed_list from /proc/self/status".to_string())
}

/// What [`pin_to_one_cpu`] did.
pub struct Pinned {
    /// The single CPU every simulator thread now runs on.
    pub cpu: usize,
    /// The mask before pinning, for the probes that must run unpinned.
    pub original: Vec<usize>,
}

/// Pins the process to the last CPU it is allowed on (CPU 0 takes most
/// interrupts) and reads the mask back: a mask that still holds more
/// than one CPU is an error, never a silently unpinned measurement.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let original = allowed_cpus()?;
    let cpu = *original.last().expect("allowed_cpus is non-empty");
    if original.len() > 1 {
        set_affinity(&[cpu])?;
    }
    match allowed_cpus()?.as_slice() {
        [only] if *only == cpu => Ok(Pinned { cpu, original }),
        mask => Err(format!("pinning to cpu {cpu} left the mask at {mask:?}")),
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in kilobytes.
pub fn status_kb(key: &str) -> Option<u64> {
    status_field(key)?.split_whitespace().next()?.parse().ok()
}

/// `(user, kernel)` CPU seconds this process has consumed, from
/// `/proc/self/stat`. The tick is USER_HZ, which is 100 on every Linux
/// ABI regardless of the kernel's own HZ.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields are counted after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / 100.0, stime / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1,4\n"), Some(vec![0, 1, 4]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("a-b"), None);
    }
}
