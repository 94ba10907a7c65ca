//! The hand-rolled wire format.
//!
//! Nothing in the container this workspace builds in provides `serde` or
//! `bincode`, so framing is done by hand, bincode-style: fixed-width
//! little-endian integers, `u32`-length-prefixed sequences, a one-byte tag
//! per enum variant, no padding, no self-description. The format is:
//!
//! ```text
//! frame    := magic(2) version(1) from(4) to(4) len(4) payload(len)
//! magic    := 0x49 0x52                  ("IR")
//! version  := 0x01
//! from,to  := u32 LE (zero-based ProcessId)
//! len      := u32 LE, length of payload in bytes
//! ```
//!
//! The payload is an encoded protocol message ([`Wire`]). For [`OmegaMsg`]:
//!
//! ```text
//! omega     := 0x00 rn(8) n(4) level(8)*n           # ALIVE(rn, susp)
//!            | 0x01 rn(8) k(4) (idx(4) level(8))*k  # ALIVE delta entries
//!            | 0x02 rn(8) n(4) word(8)*ceil(n/64)   # SUSPICION(rn, set)
//! ```
//!
//! Every decoder is total: arbitrary bytes either decode or return a
//! [`WireError`], never panic — a UDP socket is an untrusted input. The
//! proptest in this module round-trips random messages and feeds random
//! bytes to the decoders.

use irs_omega::{OmegaMsg, SuspVector};
use irs_types::{ProcessId, ProcessSet, RoundNum};
use std::fmt;

/// Magic bytes opening every frame ("IR").
pub const FRAME_MAGIC: [u8; 2] = [0x49, 0x52];
/// Current wire-format version.
pub const FRAME_VERSION: u8 = 1;
/// Bytes of frame header preceding the payload.
pub const FRAME_HEADER_LEN: usize = 2 + 1 + 4 + 4 + 4;
/// Largest payload a frame may carry. Fits a UDP datagram with headroom;
/// an `ALIVE` at `n = 4096` is still well under this.
pub const MAX_PAYLOAD: usize = 60 * 1024;

/// A malformed or truncated wire input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Fewer bytes than the decoder needed.
    Truncated,
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic,
    /// An unsupported format version.
    BadVersion(u8),
    /// An unknown enum tag.
    BadTag(u8),
    /// A declared length that is impossible or over [`MAX_PAYLOAD`].
    BadLength(usize),
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadLength(l) => write!(f, "impossible length {l}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over received bytes with total, panic-free accessors.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Fails if any input is left unconsumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

/// A message type with a wire encoding.
///
/// This is the contract every transportable protocol message satisfies: the
/// encoder appends to a caller-supplied buffer (so a broadcast encodes
/// once), and the decoder is total over arbitrary byte strings. `decode`
/// must consume the reader exactly; [`decode_payload`] checks that.
pub trait Wire: Sized {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one message from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed or truncated input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Returns `true` if this (already well-formed) message is semantically
    /// valid for an `n`-process deployment.
    ///
    /// The codec alone cannot know the system size, but the protocols index
    /// by it: an `ALIVE` vector of the wrong length or a delta entry out of
    /// range would panic deep inside the state machine. Runtimes call this
    /// after decoding and drop mismatched messages as link noise — a stray
    /// datagram from another deployment on a reused port must never take a
    /// node down.
    fn valid_for(&self, n: usize) -> bool {
        let _ = n;
        true
    }

    /// Frame admission: returns `true` if a host of an `n`-process group
    /// accepts this (already decoded) message from `from`, where `peers`
    /// (≥ `n`) is the size of the deployment's routing table. The host has
    /// already checked that the frame is addressed to a process it hosts.
    ///
    /// The default admits group members only, and only messages
    /// [`valid_for`](Wire::valid_for) the group. Message types with a
    /// client plane override it to admit senders beyond the group.
    fn admit(&self, from: ProcessId, n: usize, peers: usize) -> bool {
        let _ = peers;
        from.index() < n && self.valid_for(n)
    }
}

/// Decodes a whole payload as one message, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed, truncated or oversized input.
pub fn decode_payload<M: Wire>(payload: &[u8]) -> Result<M, WireError> {
    let mut r = WireReader::new(payload);
    let msg = M::decode(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Encodes a frame header followed by the payload into `buf`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — the caller sized the
/// message; a protocol whose messages outgrow a datagram needs a different
/// transport, not silent truncation.
pub fn encode_frame(buf: &mut Vec<u8>, from: ProcessId, to: ProcessId, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload of {} bytes exceeds MAX_PAYLOAD",
        payload.len()
    );
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(FRAME_VERSION);
    put_u32(buf, from.as_u32());
    put_u32(buf, to.as_u32());
    put_u32(buf, payload.len() as u32);
    buf.extend_from_slice(payload);
}

/// Byte offset of the `to` field inside an encoded frame (after magic and
/// version, before the sender).
const FRAME_TO_OFFSET: usize = 2 + 1 + 4;

/// Rewrites the `to` field of an already-encoded frame in place.
///
/// This is what makes encode-once fan-out possible: a broadcast encodes the
/// frame a single time and patches these four bytes per receiver instead of
/// re-encoding header and payload for every destination
/// ([`crate::UdpTransport::send_many`] and the reactor's send queue both use
/// it).
///
/// # Panics
///
/// Panics if `frame` is shorter than a frame header — the caller produced
/// it with [`encode_frame`], so anything shorter is a logic error.
pub fn set_frame_to(frame: &mut [u8], to: ProcessId) {
    assert!(frame.len() >= FRAME_HEADER_LEN, "not an encoded frame");
    frame[FRAME_TO_OFFSET..FRAME_TO_OFFSET + 4].copy_from_slice(&to.as_u32().to_le_bytes());
}

/// Decodes one frame, returning `(from, to, payload)`.
///
/// # Errors
///
/// Returns a [`WireError`] if the header is malformed or the payload length
/// disagrees with the bytes present.
pub fn decode_frame(bytes: &[u8]) -> Result<(ProcessId, ProcessId, &[u8]), WireError> {
    let mut r = WireReader::new(bytes);
    if r.take(2)? != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let from = ProcessId::new(r.u32()?);
    let to = ProcessId::new(r.u32()?);
    let len = r.u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::BadLength(len));
    }
    let payload = r.take(len)?;
    r.finish()?;
    Ok((from, to, payload))
}

const TAG_ALIVE: u8 = 0;
const TAG_ALIVE_DELTA: u8 = 1;
const TAG_SUSPICION: u8 = 2;

/// Largest system size the codec accepts when decoding (`n` drives
/// allocation; an attacker-supplied `n` must not).
const MAX_WIRE_N: u32 = 1 << 16;

impl Wire for OmegaMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            OmegaMsg::Alive { rn, susp } => {
                buf.push(TAG_ALIVE);
                put_u64(buf, rn.value());
                put_u32(buf, susp.len() as u32);
                for &level in susp.as_slice() {
                    put_u64(buf, level);
                }
            }
            OmegaMsg::AliveDelta { rn, entries } => {
                buf.push(TAG_ALIVE_DELTA);
                put_u64(buf, rn.value());
                put_u32(buf, entries.len() as u32);
                for &(idx, level) in entries {
                    put_u32(buf, idx);
                    put_u64(buf, level);
                }
            }
            OmegaMsg::Suspicion { rn, suspects } => {
                buf.push(TAG_SUSPICION);
                put_u64(buf, rn.value());
                put_u32(buf, suspects.capacity() as u32);
                for &word in suspects.as_words() {
                    put_u64(buf, word);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let rn = RoundNum::new(r.u64()?);
        match tag {
            TAG_ALIVE => {
                let n = r.u32()?;
                if n > MAX_WIRE_N {
                    return Err(WireError::BadLength(n as usize));
                }
                // Clamp the preallocation by the bytes actually present: a
                // short datagram claiming a huge count must fail with
                // `Truncated` without a count-sized allocation first.
                let mut levels = Vec::with_capacity((n as usize).min(r.remaining() / 8));
                for _ in 0..n {
                    levels.push(r.u64()?);
                }
                Ok(OmegaMsg::Alive {
                    rn,
                    susp: SuspVector::from_levels(levels),
                })
            }
            TAG_ALIVE_DELTA => {
                let k = r.u32()?;
                if k > MAX_WIRE_N {
                    return Err(WireError::BadLength(k as usize));
                }
                let mut entries = Vec::with_capacity((k as usize).min(r.remaining() / 12));
                for _ in 0..k {
                    let idx = r.u32()?;
                    let level = r.u64()?;
                    entries.push((idx, level));
                }
                Ok(OmegaMsg::AliveDelta { rn, entries })
            }
            TAG_SUSPICION => {
                let n = r.u32()?;
                if n > MAX_WIRE_N {
                    return Err(WireError::BadLength(n as usize));
                }
                let n = n as usize;
                let mut suspects = ProcessSet::empty(n);
                for w in 0..n.div_ceil(64) {
                    let mut word = r.u64()?;
                    if w == n / 64 && !n.is_multiple_of(64) && word >> (n % 64) != 0 {
                        // Bits beyond the capacity would corrupt the set's
                        // invariants; a well-formed encoder never sets them.
                        return Err(WireError::BadLength(n));
                    }
                    while word != 0 {
                        let bit = word.trailing_zeros() as usize;
                        suspects.insert(ProcessId::new((w * 64 + bit) as u32));
                        word &= word - 1;
                    }
                }
                Ok(OmegaMsg::Suspicion { rn, suspects })
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    fn valid_for(&self, n: usize) -> bool {
        match self {
            OmegaMsg::Alive { susp, .. } => susp.len() == n,
            OmegaMsg::AliveDelta { entries, .. } => {
                entries.iter().all(|&(idx, _)| (idx as usize) < n)
            }
            OmegaMsg::Suspicion { suspects, .. } => suspects.capacity() == n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &OmegaMsg) -> OmegaMsg {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        decode_payload(&buf).expect("roundtrip decode")
    }

    #[test]
    fn alive_roundtrips() {
        let msg = OmegaMsg::Alive {
            rn: RoundNum::new(42),
            susp: SuspVector::from_levels(vec![0, 3, 1, u64::MAX, 7]),
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn alive_delta_roundtrips() {
        let msg = OmegaMsg::AliveDelta {
            rn: RoundNum::new(9),
            entries: vec![(0, 1), (130, 55), (255, u64::MAX)],
        };
        assert_eq!(roundtrip(&msg), msg);
        let empty = OmegaMsg::AliveDelta {
            rn: RoundNum::new(1),
            entries: Vec::new(),
        };
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn suspicion_roundtrips_across_word_boundaries() {
        for n in [2usize, 4, 63, 64, 65, 128, 200, 256] {
            let suspects =
                ProcessSet::from_ids(n, (0..n as u32).filter(|i| i % 3 == 0).map(ProcessId::new));
            let msg = OmegaMsg::Suspicion {
                rn: RoundNum::new(n as u64),
                suspects,
            };
            assert_eq!(roundtrip(&msg), msg, "n = {n}");
        }
    }

    #[test]
    fn frame_roundtrips() {
        let mut frame = Vec::new();
        encode_frame(&mut frame, ProcessId::new(3), ProcessId::new(7), b"hello");
        let (from, to, payload) = decode_frame(&frame).unwrap();
        assert_eq!(from, ProcessId::new(3));
        assert_eq!(to, ProcessId::new(7));
        assert_eq!(payload, b"hello");
    }

    /// A patched frame is byte-identical to one freshly encoded for the new
    /// receiver — the invariant the encode-once fan-out paths rely on.
    #[test]
    fn patched_to_field_matches_fresh_encode() {
        let mut patched = Vec::new();
        encode_frame(
            &mut patched,
            ProcessId::new(3),
            ProcessId::new(0),
            b"payload",
        );
        for to in [0u32, 1, 7, u32::MAX] {
            set_frame_to(&mut patched, ProcessId::new(to));
            let mut fresh = Vec::new();
            encode_frame(
                &mut fresh,
                ProcessId::new(3),
                ProcessId::new(to),
                b"payload",
            );
            assert_eq!(patched, fresh, "to = {to}");
            let (from, decoded_to, payload) = decode_frame(&patched).unwrap();
            assert_eq!(from, ProcessId::new(3));
            assert_eq!(decoded_to, ProcessId::new(to));
            assert_eq!(payload, b"payload");
        }
    }

    #[test]
    fn frame_rejects_garbage() {
        assert_eq!(decode_frame(b""), Err(WireError::Truncated));
        assert_eq!(decode_frame(b"XXxxxxxxxxxxxxxx"), Err(WireError::BadMagic));
        let mut frame = Vec::new();
        encode_frame(&mut frame, ProcessId::new(0), ProcessId::new(1), b"abc");
        // Wrong version.
        let mut bad = frame.clone();
        bad[2] = 9;
        assert_eq!(decode_frame(&bad), Err(WireError::BadVersion(9)));
        // Declared length longer than the bytes present.
        let mut short = frame.clone();
        short.truncate(frame.len() - 1);
        assert_eq!(decode_frame(&short), Err(WireError::Truncated));
        // Trailing junk after the payload.
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn payload_decoder_rejects_trailing_and_bad_tags() {
        let mut buf = Vec::new();
        OmegaMsg::AliveDelta {
            rn: RoundNum::new(1),
            entries: vec![],
        }
        .encode(&mut buf);
        buf.push(0xFF);
        assert_eq!(
            decode_payload::<OmegaMsg>(&buf),
            Err(WireError::TrailingBytes(1))
        );
        assert_eq!(
            decode_payload::<OmegaMsg>(&[0x77]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_payload::<OmegaMsg>(&[0x77, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::BadTag(0x77))
        );
    }

    #[test]
    fn suspicion_rejects_out_of_capacity_bits() {
        // Capacity 4 but a bit set at position 5.
        let mut buf = vec![TAG_SUSPICION];
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 4);
        put_u64(&mut buf, 0b10_0000);
        assert_eq!(
            decode_payload::<OmegaMsg>(&buf),
            Err(WireError::BadLength(4))
        );
    }

    #[test]
    fn valid_for_rejects_messages_sized_for_another_deployment() {
        let alive = |n: usize| OmegaMsg::Alive {
            rn: RoundNum::new(1),
            susp: SuspVector::new(n),
        };
        assert!(alive(4).valid_for(4));
        assert!(!alive(256).valid_for(4));
        assert!(!alive(3).valid_for(4));

        let delta = OmegaMsg::AliveDelta {
            rn: RoundNum::new(1),
            entries: vec![(3, 9)],
        };
        assert!(delta.valid_for(4));
        assert!(!delta.valid_for(3), "entry index out of range");

        let suspicion = |n: usize| OmegaMsg::Suspicion {
            rn: RoundNum::new(1),
            suspects: ProcessSet::empty(n),
        };
        assert!(suspicion(4).valid_for(4));
        assert!(!suspicion(8).valid_for(4));
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        let mut buf = vec![TAG_ALIVE];
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            decode_payload::<OmegaMsg>(&buf),
            Err(WireError::BadLength(u32::MAX as usize))
        );
        // A count within MAX_WIRE_N but without the bytes to back it fails
        // with Truncated (and, by the remaining-bytes clamp, without a
        // count-sized preallocation).
        for tag in [TAG_ALIVE, TAG_ALIVE_DELTA] {
            let mut short = vec![tag];
            put_u64(&mut short, 1);
            put_u32(&mut short, MAX_WIRE_N);
            assert_eq!(
                decode_payload::<OmegaMsg>(&short),
                Err(WireError::Truncated)
            );
        }
    }

    proptest! {
        #[test]
        fn random_messages_roundtrip(
            rn in 0u64..1_000_000,
            levels in proptest::collection::vec(0u64..1_000, 2..40),
            members in proptest::collection::btree_set(0u32..40, 0..20),
        ) {
            let n = levels.len();
            let alive = OmegaMsg::Alive {
                rn: RoundNum::new(rn),
                susp: SuspVector::from_levels(levels.clone()),
            };
            prop_assert_eq!(roundtrip(&alive), alive);

            let capacity = 40usize;
            let suspicion = OmegaMsg::Suspicion {
                rn: RoundNum::new(rn),
                suspects: ProcessSet::from_ids(
                    capacity,
                    members.iter().copied().map(ProcessId::new),
                ),
            };
            prop_assert_eq!(roundtrip(&suspicion), suspicion);

            let delta = OmegaMsg::AliveDelta {
                rn: RoundNum::new(rn),
                entries: levels.iter().take(n.min(8)).enumerate()
                    .map(|(i, &l)| (i as u32, l)).collect(),
            };
            prop_assert_eq!(roundtrip(&delta), delta);
        }

        #[test]
        fn random_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let _ = decode_frame(&bytes);
            let _ = decode_payload::<OmegaMsg>(&bytes);
        }
    }
}
