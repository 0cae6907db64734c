//! Wire codecs for the protocol messages: byte layouts whose length equals
//! [`WireSize::wire_bytes`] exactly, so the byte accounting the simulators
//! attribute per frame is what actually crosses the socket.
//!
//! Framing (see [`crate::tcp`]) is length-prefixed, so codecs never need
//! self-delimiting payloads: list lengths are derived from the frame length.
//! All integers are little-endian; the first `u32` is a message tag.

use rspan_distributed::transport::WireSize;
use rspan_distributed::{RemSpanMsg, RepairMsg};
use rspan_graph::Node;

/// A message that can cross a byte-oriented transport.  `encode` must
/// append exactly [`WireSize::wire_bytes`] bytes; `decode` must invert it.
pub trait WireCodec: WireSize + Sized {
    /// Appends this message's wire form to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Parses one message from exactly the bytes `encode` produced.
    /// `None` on malformed input (wrong tag, truncated lists).
    fn decode(buf: &[u8]) -> Option<Self>;
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.buf.split_first_chunk::<4>()?;
        self.buf = rest;
        Some(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_first_chunk::<8>()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// Remaining bytes as a node list (4 bytes per id).
    fn nodes(&mut self) -> Option<Vec<Node>> {
        if !self.buf.len().is_multiple_of(4) {
            return None;
        }
        let mut out = Vec::with_capacity(self.buf.len() / 4);
        while !self.buf.is_empty() {
            out.push(self.u32()?);
        }
        Some(out)
    }

    /// Remaining bytes as an edge list (8 bytes per pair).
    fn edges(&mut self) -> Option<Vec<(Node, Node)>> {
        if !self.buf.len().is_multiple_of(8) {
            return None;
        }
        let mut out = Vec::with_capacity(self.buf.len() / 8);
        while !self.buf.is_empty() {
            let a = self.u32()?;
            let b = self.u32()?;
            out.push((a, b));
        }
        Some(out)
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

// RemSpanMsg: Hello = 8, LinkState = 12 + 4·len, TreeAdvert = 12 + 8·len.
const REMSPAN_HELLO: u32 = 0;
const REMSPAN_LINK_STATE: u32 = 1;
const REMSPAN_TREE_ADVERT: u32 = 2;

impl WireCodec for RemSpanMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RemSpanMsg::Hello(origin) => {
                put_u32(buf, REMSPAN_HELLO);
                put_u32(buf, *origin);
            }
            RemSpanMsg::LinkState(origin, list, ttl) => {
                put_u32(buf, REMSPAN_LINK_STATE);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &v in list {
                    put_u32(buf, v);
                }
            }
            RemSpanMsg::TreeAdvert(origin, edges, ttl) => {
                put_u32(buf, REMSPAN_TREE_ADVERT);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &(a, b) in edges {
                    put_u32(buf, a);
                    put_u32(buf, b);
                }
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader { buf };
        match r.u32()? {
            REMSPAN_HELLO => {
                let origin = r.u32()?;
                r.done().then_some(RemSpanMsg::Hello(origin))
            }
            REMSPAN_LINK_STATE => {
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RemSpanMsg::LinkState(origin, r.nodes()?, ttl))
            }
            REMSPAN_TREE_ADVERT => {
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RemSpanMsg::TreeAdvert(origin, r.edges()?, ttl))
            }
            _ => None,
        }
    }
}

// RepairMsg: LinkState = 20 + 4·len, TreeAdvert = 20 + 8·len.
const REPAIR_LINK_STATE: u32 = 0;
const REPAIR_TREE_ADVERT: u32 = 1;

impl WireCodec for RepairMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RepairMsg::LinkState(epoch, origin, list, ttl) => {
                put_u32(buf, REPAIR_LINK_STATE);
                put_u64(buf, *epoch);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &v in list {
                    put_u32(buf, v);
                }
            }
            RepairMsg::TreeAdvert(epoch, origin, edges, ttl) => {
                put_u32(buf, REPAIR_TREE_ADVERT);
                put_u64(buf, *epoch);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &(a, b) in edges {
                    put_u32(buf, a);
                    put_u32(buf, b);
                }
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader { buf };
        match r.u32()? {
            REPAIR_LINK_STATE => {
                let epoch = r.u64()?;
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RepairMsg::LinkState(epoch, origin, r.nodes()?, ttl))
            }
            REPAIR_TREE_ADVERT => {
                let epoch = r.u64()?;
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RepairMsg::TreeAdvert(epoch, origin, r.edges()?, ttl))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip<M: WireCodec + std::fmt::Debug>(msg: M) -> M {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(
            buf.len() as u64,
            msg.wire_bytes(),
            "encoded length must equal the accounted wire bytes for {msg:?}"
        );
        M::decode(&buf).expect("roundtrip decode")
    }

    #[test]
    fn remspan_roundtrips_at_accounted_size() {
        match roundtrip(RemSpanMsg::Hello(7)) {
            RemSpanMsg::Hello(7) => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(RemSpanMsg::LinkState(3, vec![1, 4, 9], 2)) {
            RemSpanMsg::LinkState(3, list, 2) => assert_eq!(list, vec![1, 4, 9]),
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(RemSpanMsg::TreeAdvert(5, vec![(1, 2), (3, 4)], 1)) {
            RemSpanMsg::TreeAdvert(5, edges, 1) => assert_eq!(edges, vec![(1, 2), (3, 4)]),
            other => panic!("bad roundtrip: {other:?}"),
        }
        // Empty lists are legal frames.
        match roundtrip(RemSpanMsg::LinkState(0, vec![], 1)) {
            RemSpanMsg::LinkState(0, list, 1) => assert!(list.is_empty()),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn repair_roundtrips_at_accounted_size() {
        match roundtrip(RepairMsg::LinkState(9, 0, vec![1, 2], 2)) {
            RepairMsg::LinkState(9, 0, list, 2) => assert_eq!(list, vec![1, 2]),
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(RepairMsg::TreeAdvert(u64::MAX, 3, vec![(0, 1)], 4)) {
            RepairMsg::TreeAdvert(u64::MAX, 3, edges, 4) => assert_eq!(edges, vec![(0, 1)]),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(RepairMsg::decode(&[]).is_none());
        assert!(RepairMsg::decode(&99u32.to_le_bytes()).is_none());
        // A repair link-state whose list bytes are not a multiple of 4.
        let mut buf = Vec::new();
        RepairMsg::LinkState(1, 0, vec![2], 1).encode(&mut buf);
        assert!(RepairMsg::decode(&buf[..buf.len() - 1]).is_none());
        // Trailing garbage after a Hello.
        let mut buf = Vec::new();
        RemSpanMsg::Hello(1).encode(&mut buf);
        buf.push(0);
        assert!(RemSpanMsg::decode(&buf).is_none());
    }

    fn encoded(msg: &impl WireCodec) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    fn random_nodes(rng: &mut SmallRng) -> Vec<Node> {
        (0..rng.gen_range(0usize..8))
            .map(|_| rng.next_u64() as Node)
            .collect()
    }

    fn random_edges(rng: &mut SmallRng) -> Vec<(Node, Node)> {
        (0..rng.gen_range(0usize..8))
            .map(|_| (rng.next_u64() as Node, rng.next_u64() as Node))
            .collect()
    }

    fn random_remspan(rng: &mut SmallRng) -> RemSpanMsg {
        let (origin, ttl) = (rng.next_u64() as Node, rng.next_u64() as u32);
        match rng.gen_range(0u32..3) {
            0 => RemSpanMsg::Hello(origin),
            1 => RemSpanMsg::LinkState(origin, random_nodes(rng), ttl),
            _ => RemSpanMsg::TreeAdvert(origin, random_edges(rng), ttl),
        }
    }

    fn random_repair(rng: &mut SmallRng) -> RepairMsg {
        let (epoch, origin, ttl) = (
            rng.next_u64(),
            rng.next_u64() as Node,
            rng.next_u64() as u32,
        );
        match rng.gen_range(0u32..2) {
            0 => RepairMsg::LinkState(epoch, origin, random_nodes(rng), ttl),
            _ => RepairMsg::TreeAdvert(epoch, origin, random_edges(rng), ttl),
        }
    }

    /// Decodes `bytes` as an `M` and, if that succeeds, checks that the
    /// message re-encodes to exactly `bytes` at its accounted size.
    fn accepts<M: WireCodec + std::fmt::Debug>(bytes: &[u8]) -> bool {
        let Some(msg) = M::decode(bytes) else {
            return false;
        };
        assert_eq!(encoded(&msg), bytes, "{msg:?} re-encodes differently");
        assert_eq!(msg.wire_bytes(), bytes.len() as u64, "{msg:?}");
        true
    }

    #[test]
    fn decode_never_panics_and_inverts_encode_where_it_accepts() {
        let mut rng = SmallRng::seed_from_u64(0xC0DEC);
        let (mut remspan, mut repair) = (0, 0);
        for _ in 0..20_000 {
            let len = rng.gen_range(0usize..=256);
            let arbitrary: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let valid = if rng.gen_range(0u32..2) == 0 {
                encoded(&random_remspan(&mut rng))
            } else {
                encoded(&random_repair(&mut rng))
            };
            let truncated = valid[..rng.gen_range(0..valid.len())].to_vec();
            let mut flipped = valid.clone();
            let bit = rng.gen_range(0..8 * valid.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Every tag of both types, plus one neither uses.
            let mut swapped = valid;
            swapped[..4].copy_from_slice(&rng.gen_range(0u32..4).to_le_bytes());
            for bytes in [arbitrary, truncated, flipped, swapped] {
                remspan += usize::from(accepts::<RemSpanMsg>(&bytes));
                repair += usize::from(accepts::<RepairMsg>(&bytes));
            }
        }
        assert!(remspan > 0 && repair > 0, "a decoder accepted nothing");
    }

    #[test]
    fn random_valid_messages_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for _ in 0..5_000 {
            let msg = random_remspan(&mut rng);
            let back = roundtrip(msg.clone());
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
            let msg = random_repair(&mut rng);
            let back = roundtrip(msg.clone());
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }
}
