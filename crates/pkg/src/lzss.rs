//! LZSS compression, implemented from scratch.
//!
//! Packaging "must admit compression to overcome the efficient
//! transmission of the component through possibly long and slow
//! communication lines" (§2.3 of the paper). This is a classic
//! LZSS (Lempel–Ziv–Storer–Szymanski) coder: a 4 KiB sliding window,
//! match lengths 3–18 bytes, flag bytes grouping eight items. It favours
//! simplicity and determinism over ratio — the experiment that matters
//! (E9) measures the *system* effect of compressing packages before
//! shipping them over slow links, not state-of-the-art entropy coding.
//!
//! Format: `[flags: u8] item{8}` repeated; flag bit i set → literal byte,
//! clear → a 2-byte `(offset:12, len-3:4)` back-reference. The stream is
//! prefixed with the decompressed length as a little-endian `u32`.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;

/// Compress `data`. Output always starts with the 4-byte original length.
pub fn compress(data: &[u8]) -> Vec<u8> {
    assert!(data.len() <= u32::MAX as usize, "input too large");
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    // Hash chains over 3-byte prefixes for O(1) candidate lookup.
    let mut head = vec![usize::MAX; 1 << 13];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let hash = |d: &[u8]| -> usize {
        ((d[0] as usize) << 6 ^ (d[1] as usize) << 3 ^ (d[2] as usize)) & ((1 << 13) - 1)
    };

    let mut i = 0;
    let mut flags_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u8;

    macro_rules! begin_item {
        () => {
            if flag_bit == 8 {
                flags_pos = out.len();
                out.push(0);
                flag_bit = 0;
            }
        };
    }

    while i < data.len() {
        begin_item!();
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(&data[i..]);
            let mut cand = head[h];
            let mut tries = 32;
            while cand != usize::MAX && tries > 0 && i - cand <= WINDOW {
                let max = MAX_MATCH.min(data.len() - i);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand];
                tries -= 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Back-reference item: offset 1..=4096 stored as offset-1.
            let token = (((best_off - 1) as u16) << 4) | ((best_len - MIN_MATCH) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            // flag bit stays 0
            flag_bit += 1;
            // Insert hash entries for every covered position.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(&data[i..]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            out[flags_pos] |= 1 << flag_bit;
            out.push(data[i]);
            flag_bit += 1;
            if i + MIN_MATCH <= data.len() {
                let h = hash(&data[i..]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    out
}

/// Decompression failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecompressError(pub String);

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LZSS decompress error: {}", self.0)
    }
}
impl std::error::Error for DecompressError {}

/// Decompress a [`compress`] stream.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, DecompressError> {
    if stream.len() < 4 {
        return Err(DecompressError("truncated header".into()));
    }
    let expect = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
    // The declared length is a claim; what the stream can produce is at
    // most MAX_MATCH bytes per two-byte back-reference. Reserve no more.
    let producible = (stream.len() - 4).saturating_mul(MAX_MATCH / 2);
    let mut out = Vec::with_capacity(expect.min(producible));
    let mut pos = 4usize;
    while out.len() < expect {
        if pos >= stream.len() {
            return Err(DecompressError("truncated stream".into()));
        }
        let flags = stream[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expect {
                break;
            }
            if flags & (1 << bit) != 0 {
                let Some(&b) = stream.get(pos) else {
                    return Err(DecompressError("truncated literal".into()));
                };
                out.push(b);
                pos += 1;
            } else {
                if pos + 2 > stream.len() {
                    return Err(DecompressError("truncated back-reference".into()));
                }
                let token = u16::from_le_bytes([stream[pos], stream[pos + 1]]);
                pos += 2;
                let off = (token >> 4) as usize + 1;
                let len = (token & 0xf) as usize + MIN_MATCH;
                if off > out.len() {
                    return Err(DecompressError(format!(
                        "back-reference offset {off} exceeds output length {}",
                        out.len()
                    )));
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != expect {
        return Err(DecompressError("length mismatch".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn round_trips() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcabcabcabcabcabc");
        round_trip(&[0u8; 10_000]);
        let text = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog!"
            .repeat(50);
        round_trip(&text);
    }

    #[test]
    fn compresses_redundant_data() {
        let data = b"component descriptor component descriptor ".repeat(100);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 3,
            "expected >3x on repetitive text, got {} -> {}",
            data.len(),
            c.len()
        );
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        // Pseudo-random bytes: expansion is bounded by 1/8 + header.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 8);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rejects_corrupt_streams() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[5, 0, 0, 0]).is_err());
        assert!(decompress(&[5, 0, 0, 0, 0b0000_0000, 0xff]).is_err());
        // back-reference before start of output
        assert!(decompress(&[5, 0, 0, 0, 0b0000_0000, 0xff, 0xff]).is_err());
        let mut good = compress(b"hello hello hello hello");
        good.truncate(good.len() - 1);
        assert!(decompress(&good).is_err());
    }

    #[test]
    fn long_matches_capped() {
        let data = vec![7u8; MAX_MATCH * 10];
        round_trip(&data);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lc_prop::check;

    #[test]
    fn round_trip_arbitrary() {
        check("round_trip_arbitrary", |g| {
            let data = g.bytes(0..5000);
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        });
    }

    #[test]
    fn round_trip_repetitive() {
        check("round_trip_repetitive", |g| {
            let seed = g.bytes(1..20);
            let reps = g.gen_range(1..200usize);
            let data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        });
    }

    /// Decompression never panics on arbitrary garbage.
    #[test]
    fn decompress_total() {
        check("decompress_total", |g| {
            let garbage = g.bytes(0..2000);
            let _ = decompress(&garbage);
        });
    }
}
