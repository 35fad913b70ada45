//! Confining the benchmark process to one CPU.
//!
//! A closed loop with one outstanding request has no parallelism to lose on
//! one CPU: the client, the connection thread and the front worker run one
//! after another. Spread over several virtual CPUs, every hand-off instead
//! wakes an idle CPU, and on a shared host how long the hypervisor takes to
//! run it again varies from run to run by more than the program's own
//! cost. Linux threads inherit the affinity of the thread that starts them,
//! so pinning the main thread before setup pins every thread of the system.

/// Words of a kernel `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it starts from now on, to the
/// highest-numbered CPU it may run on; returns that CPU.
pub fn to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}
