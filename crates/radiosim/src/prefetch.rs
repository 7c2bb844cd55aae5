//! A cache hint for data that a pass is about to read.

/// The cache-line size the hint steps by.
const LINE: usize = 64;

/// Asks the CPU to start loading every cache line of `value` into its
/// caches, so that a read of it a little later does not wait on memory.
///
/// Only a hint: it reads nothing, writes nothing and cannot fault, so it
/// never changes what a program computes, only how long its later loads
/// take. A zero-sized value or an empty slice requests nothing. On
/// targets other than x86_64 it does nothing.
#[inline]
pub fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = (value as *const T).cast::<i8>();
        let (skew, count) = lines(start.addr(), std::mem::size_of_val(value));
        let first = start.wrapping_sub(skew);
        for i in 0..count {
            // SAFETY: `_mm_prefetch` needs SSE, which every x86_64 target
            // has, and it is a hint that neither dereferences the pointer
            // nor faults on any address. Each pointer is the start of a
            // cache line that holds a byte of `value` anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(i * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// The cache lines that hold a byte of a value of `len` bytes at address
/// `addr`: how far before `addr` the first of them starts, and how many
/// there are (none when `len` is 0).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn lines(addr: usize, len: usize) -> (usize, usize) {
    let skew = addr % LINE;
    let count = if len == 0 {
        0
    } else {
        (skew + len).div_ceil(LINE)
    };
    (skew, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sized_values_and_empty_slices_request_nothing() {
        struct Unit;
        prefetch(&Unit);
        prefetch(&());
        prefetch::<[u64]>(&[]);
        prefetch(&Vec::<u8>::new()[..]);
        assert_eq!(lines(0, 0).1, 0);
        assert_eq!(lines(37, 0).1, 0);
    }

    #[test]
    fn a_value_spanning_several_lines_requests_each_of_its_lines() {
        #[repr(align(64))]
        struct Wide([u8; 200]);
        let wide = Wide([7; 200]);
        prefetch(&wide);
        prefetch(&wide.0[3..150]);
        // The hint leaves the value as it was.
        assert!(wide.0.iter().all(|&b| b == 7));
        // 200 bytes from a line start touch four lines; 147 bytes from
        // byte 3 of a line touch three; two bytes across a boundary, two.
        assert_eq!(lines(128, 200), (0, 4));
        assert_eq!(lines(131, 147), (3, 3));
        assert_eq!(lines(63, 2), (63, 2));
        for addr in 0..2 * LINE {
            for len in 1..5 * LINE {
                let (skew, count) = lines(addr, len);
                // The requests start at the line of the first byte and
                // end at the line of the last.
                assert_eq!((addr - skew) % LINE, 0, "addr {addr}, len {len}");
                assert_eq!((addr - skew) / LINE, addr / LINE);
                assert_eq!((addr - skew) / LINE + count - 1, (addr + len - 1) / LINE);
            }
        }
    }
}
