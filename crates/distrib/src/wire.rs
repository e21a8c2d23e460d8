//! The real wire codec for the served [`ArchMsg`](crate::ArchMsg) shapes.
//!
//! The simulator exchanges `ArchMsg` values by reference and only
//! *charges* byte counts (`msg::record_bytes` and friends); nothing ever
//! crosses a socket. `pass-server` changes that: the subset of the
//! architecture vocabulary a real client speaks — publish batches, paged
//! keyset queries, standing subscriptions with server push — gets a
//! canonical binary encoding here, built on the same `pass-model` codec
//! that storage and identity already use.
//!
//! Two deliberate differences from the sim shapes:
//!
//! * **Publishes carry [`TupleSet`]s, not `ProvenanceRecord`s.** A sim
//!   client has already ingested locally and ships the finished record;
//!   a real client ships the captured readings + provenance and the
//!   server's `Pass::ingest_batch` assigns the content-addressed ids
//!   (returned in [`WireMsg::PublishOk`]).
//! * **Queries travel as text.** The structured `Query` tree has no
//!   canonical encoding (it never hits storage); the query *language*
//!   is the canonical form, parsed server-side. Parse errors come back
//!   as [`WireMsg::Error`], exactly like a local `query_text` call.
//!
//! Framing (length prefix, CRC, protocol version) is deliberately *not*
//! here: it lives in `pass-server::frame`, so the message vocabulary
//! stays transport-independent. Every message body decodes with the
//! bounds-checked [`Reader`]; corrupt bodies surface as `ModelError`s,
//! never panics — the same discipline as the storage decoders.

use pass_model::codec::{self, Decode, Encode, Reader};
use pass_model::{ModelError, TupleSet, TupleSetId};

/// Protocol version carried in every frame header. Bumped when the
/// vocabulary below changes incompatibly; a server refuses frames whose
/// version it does not speak.
pub const PROTO_VERSION: u8 = 1;

/// One message of the client/server protocol.
///
/// Kinds `0x01..=0x04` are requests (client → server); kinds with the
/// high bit set are responses or server pushes. Every request carries a
/// client-chosen `op` echoed by its replies, so responses and pushes can
/// interleave freely on one connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Publish a batch of captured tuple sets; routed into the server's
    /// `Pass::ingest_batch` (one group commit, all-or-nothing).
    Publish {
        /// Client-chosen operation id, echoed by the reply.
        op: u64,
        /// The captured sets (readings + provenance, ids assigned
        /// server-side by content digest).
        sets: Vec<TupleSet>,
    },
    /// One page of a query: the wire twin of `ArchMsg::SubQueryPage`
    /// (keyset pagination — `LIMIT n AFTER ts:x`).
    QueryPage {
        /// Client-chosen operation id, echoed by the reply.
        op: u64,
        /// The query, in the textual query language (`FIND WHERE …`).
        query: String,
        /// Keyset token: resume strictly after this id (None = first page).
        after: Option<TupleSetId>,
        /// Maximum ids in the reply page.
        limit: u64,
    },
    /// Open a standing subscription: the wire twin of
    /// `ArchMsg::ClientSubscribe`, mapped onto `Pass::subscribe` with
    /// matches pushed as [`WireMsg::Notify`] frames.
    Subscribe {
        /// Client-chosen operation id; every push for this subscription
        /// carries it.
        op: u64,
        /// The statement, in the textual grammar (`SUBSCRIBE FIND …` or
        /// `WATCH DESCENDANTS OF ts:…`).
        statement: String,
    },
    /// Ask for the server's counter snapshot.
    Stats {
        /// Client-chosen operation id, echoed by the reply.
        op: u64,
    },

    /// Publish succeeded: the content-addressed ids, in batch order.
    PublishOk {
        /// The acked op.
        op: u64,
        /// Assigned tuple-set ids, in batch order.
        ids: Vec<TupleSetId>,
    },
    /// One result page: the wire twin of `ArchMsg::SubResultPage`.
    ResultPage {
        /// The acked op.
        op: u64,
        /// Up to `limit` matching ids in the server's stable result
        /// order; the last one is the next page's `after` token.
        ids: Vec<TupleSetId>,
        /// True when no further matches exist after this page.
        done: bool,
    },
    /// Server push: freshly committed records matching a subscription —
    /// the wire twin of `ArchMsg::Notify`.
    Notify {
        /// The subscription op.
        op: u64,
        /// Matching ids from committed batches, in commit order.
        ids: Vec<TupleSetId>,
    },
    /// Subscription catch-up complete: everything visible at subscribe
    /// time has been notified; subsequent pushes come from live commits.
    SubCaughtUp {
        /// The subscription op.
        op: u64,
        /// The commit version the catch-up phase reflects.
        version: u64,
    },
    /// The connection's push queue overflowed: `missed` committed
    /// records were shed rather than blocking ingest. The subscription
    /// stream is no longer gap-free; re-subscribe to re-synchronize.
    Lagged {
        /// The subscription op.
        op: u64,
        /// Committed records discarded unexamined.
        missed: u64,
    },
    /// Terminal frame for one subscription: no further pushes for this
    /// op will arrive (server drain, or subscription teardown).
    SubClosed {
        /// The subscription op.
        op: u64,
    },
    /// Admission control rejected the request: the server is at its
    /// queue-depth or in-flight-bytes threshold and sheds new work
    /// explicitly instead of queueing toward collapse. Retry later.
    Overloaded {
        /// The rejected op.
        op: u64,
    },
    /// The request failed (parse error, bad batch, …).
    Error {
        /// The failed op.
        op: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Terminal frame for the whole connection: the server is draining
    /// and will send nothing further. `op` is always 0.
    Goodbye {
        /// Always 0 (the frame is connection-scoped, not op-scoped).
        op: u64,
    },
    /// The server's counter snapshot.
    StatsReply {
        /// The acked op.
        op: u64,
        /// The counters.
        stats: StatsBody,
    },
}

/// Server counter snapshot, as carried by [`WireMsg::StatsReply`].
///
/// Monotonic since server start (except `conns_active`). The load
/// generator cross-checks its observed `Overloaded` replies against
/// `publishes_rejected`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsBody {
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections refused at accept time (connection cap or drain).
    pub conns_rejected: u64,
    /// Connections currently open.
    pub conns_active: u64,
    /// Publish batches committed.
    pub publishes_ok: u64,
    /// Publish batches shed by admission control.
    pub publishes_rejected: u64,
    /// Records committed (sum of accepted batch sizes).
    pub records_ingested: u64,
    /// Query pages served.
    pub queries: u64,
    /// Subscriptions opened.
    pub subscriptions: u64,
    /// Records reported missed in `Lagged` frames: commits a
    /// subscription's queue dropped because its consumer fell behind.
    pub queue_shed: u64,
    /// Bytes received: whole frames, 12-byte headers included.
    pub bytes_in: u64,
    /// Bytes sent: whole frames, 12-byte headers included.
    pub bytes_out: u64,
}

impl Encode for StatsBody {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        for v in [
            self.conns_accepted,
            self.conns_rejected,
            self.conns_active,
            self.publishes_ok,
            self.publishes_rejected,
            self.records_ingested,
            self.queries,
            self.subscriptions,
            self.queue_shed,
            self.bytes_in,
            self.bytes_out,
        ] {
            codec::put_varint(buf, v);
        }
    }
}

impl Decode for StatsBody {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, ModelError> {
        Ok(StatsBody {
            conns_accepted: r.take_varint("stats conns_accepted")?,
            conns_rejected: r.take_varint("stats conns_rejected")?,
            conns_active: r.take_varint("stats conns_active")?,
            publishes_ok: r.take_varint("stats publishes_ok")?,
            publishes_rejected: r.take_varint("stats publishes_rejected")?,
            records_ingested: r.take_varint("stats records_ingested")?,
            queries: r.take_varint("stats queries")?,
            subscriptions: r.take_varint("stats subscriptions")?,
            queue_shed: r.take_varint("stats queue_shed")?,
            bytes_in: r.take_varint("stats bytes_in")?,
            bytes_out: r.take_varint("stats bytes_out")?,
        })
    }
}

impl WireMsg {
    /// The message-kind tag carried in the frame header. Requests are
    /// `0x01..=0x04`; responses and pushes set the high bit.
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::Publish { .. } => 0x01,
            WireMsg::QueryPage { .. } => 0x02,
            WireMsg::Subscribe { .. } => 0x03,
            WireMsg::Stats { .. } => 0x04,
            WireMsg::PublishOk { .. } => 0x81,
            WireMsg::ResultPage { .. } => 0x82,
            WireMsg::Notify { .. } => 0x83,
            WireMsg::SubCaughtUp { .. } => 0x84,
            WireMsg::Lagged { .. } => 0x85,
            WireMsg::SubClosed { .. } => 0x86,
            WireMsg::Overloaded { .. } => 0x87,
            WireMsg::Error { .. } => 0x88,
            WireMsg::Goodbye { .. } => 0x89,
            WireMsg::StatsReply { .. } => 0x8a,
        }
    }

    /// True for request kinds (client → server).
    pub fn is_request(&self) -> bool {
        self.kind() & 0x80 == 0
    }

    /// The operation id this message belongs to.
    pub fn op(&self) -> u64 {
        match self {
            WireMsg::Publish { op, .. }
            | WireMsg::QueryPage { op, .. }
            | WireMsg::Subscribe { op, .. }
            | WireMsg::Stats { op }
            | WireMsg::PublishOk { op, .. }
            | WireMsg::ResultPage { op, .. }
            | WireMsg::Notify { op, .. }
            | WireMsg::SubCaughtUp { op, .. }
            | WireMsg::Lagged { op, .. }
            | WireMsg::SubClosed { op }
            | WireMsg::Overloaded { op }
            | WireMsg::Error { op, .. }
            | WireMsg::Goodbye { op }
            | WireMsg::StatsReply { op, .. } => *op,
        }
    }

    /// Encodes the message *body* (everything except the kind tag, which
    /// the frame header carries).
    pub fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            WireMsg::Publish { op, sets } => {
                codec::put_varint(buf, *op);
                sets.encode_into(buf);
            }
            WireMsg::QueryPage { op, query, after, limit } => {
                codec::put_varint(buf, *op);
                codec::put_str(buf, query);
                after.encode_into(buf);
                codec::put_varint(buf, *limit);
            }
            WireMsg::Subscribe { op, statement } => {
                codec::put_varint(buf, *op);
                codec::put_str(buf, statement);
            }
            WireMsg::Stats { op }
            | WireMsg::SubClosed { op }
            | WireMsg::Overloaded { op }
            | WireMsg::Goodbye { op } => codec::put_varint(buf, *op),
            WireMsg::PublishOk { op, ids } | WireMsg::Notify { op, ids } => {
                codec::put_varint(buf, *op);
                ids.encode_into(buf);
            }
            WireMsg::ResultPage { op, ids, done } => {
                codec::put_varint(buf, *op);
                ids.encode_into(buf);
                done.encode_into(buf);
            }
            WireMsg::SubCaughtUp { op, version } => {
                codec::put_varint(buf, *op);
                codec::put_varint(buf, *version);
            }
            WireMsg::Lagged { op, missed } => {
                codec::put_varint(buf, *op);
                codec::put_varint(buf, *missed);
            }
            WireMsg::Error { op, message } => {
                codec::put_varint(buf, *op);
                codec::put_str(buf, message);
            }
            WireMsg::StatsReply { op, stats } => {
                codec::put_varint(buf, *op);
                stats.encode_into(buf);
            }
        }
    }

    /// Decodes one message body of the given kind. The reader must be
    /// positioned at the body start and is required to be fully consumed
    /// (trailing bytes are a protocol error, as in `Decode::decode_all`).
    pub fn decode_body(kind: u8, body: &[u8]) -> Result<WireMsg, ModelError> {
        let mut r = Reader::new(body);
        let msg = Self::decode_body_from(kind, &mut r)?;
        if !r.is_empty() {
            return Err(ModelError::Invalid(format!(
                "{} trailing bytes after wire message body",
                r.remaining()
            )));
        }
        Ok(msg)
    }

    fn decode_body_from(kind: u8, r: &mut Reader<'_>) -> Result<WireMsg, ModelError> {
        let op = r.take_varint("wire op")?;
        Ok(match kind {
            0x01 => WireMsg::Publish { op, sets: Vec::<TupleSet>::decode_from(r)? },
            0x02 => WireMsg::QueryPage {
                op,
                query: codec::take_string(r, "wire query")?,
                after: Option::<TupleSetId>::decode_from(r)?,
                limit: r.take_varint("wire limit")?,
            },
            0x03 => WireMsg::Subscribe { op, statement: codec::take_string(r, "wire statement")? },
            0x04 => WireMsg::Stats { op },
            0x81 => WireMsg::PublishOk { op, ids: Vec::<TupleSetId>::decode_from(r)? },
            0x82 => WireMsg::ResultPage {
                op,
                ids: Vec::<TupleSetId>::decode_from(r)?,
                done: bool::decode_from(r)?,
            },
            0x83 => WireMsg::Notify { op, ids: Vec::<TupleSetId>::decode_from(r)? },
            0x84 => WireMsg::SubCaughtUp { op, version: r.take_varint("wire version")? },
            0x85 => WireMsg::Lagged { op, missed: r.take_varint("wire missed")? },
            0x86 => WireMsg::SubClosed { op },
            0x87 => WireMsg::Overloaded { op },
            0x88 => WireMsg::Error { op, message: codec::take_string(r, "wire message")? },
            0x89 => WireMsg::Goodbye { op },
            0x8a => WireMsg::StatsReply { op, stats: StatsBody::decode_from(r)? },
            tag => return Err(ModelError::InvalidTag { decoding: "wire message kind", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{ProvenanceBuilder, Reading, SensorId, SiteId, Timestamp};

    fn sample_set(i: u64) -> TupleSet {
        let readings =
            vec![Reading::new(SensorId(3), Timestamp(100 + i)).with("speed", 40.0 + i as f64)];
        let record = ProvenanceBuilder::new(SiteId(1), Timestamp(100 + i))
            .attr("domain", "traffic")
            .attr("seq", i as i64)
            .build(TupleSet::content_digest_of(&readings));
        TupleSet::new(record, readings).expect("valid sample set")
    }

    fn round_trip(msg: &WireMsg) {
        let mut body = Vec::new();
        msg.encode_body(&mut body);
        let back = WireMsg::decode_body(msg.kind(), &body).expect("decode");
        assert_eq!(&back, msg);
    }

    #[test]
    fn all_kinds_round_trip() {
        let msgs = vec![
            WireMsg::Publish { op: 7, sets: vec![sample_set(0), sample_set(1)] },
            WireMsg::QueryPage {
                op: 8,
                query: "FIND WHERE domain = \"traffic\" ORDER BY CREATED".into(),
                after: Some(TupleSetId(42)),
                limit: 32,
            },
            WireMsg::QueryPage { op: 9, query: "FIND".into(), after: None, limit: 0 },
            WireMsg::Subscribe { op: 10, statement: "SUBSCRIBE FIND WHERE a = 1".into() },
            WireMsg::Stats { op: 11 },
            WireMsg::PublishOk { op: 7, ids: vec![TupleSetId(1), TupleSetId(2)] },
            WireMsg::ResultPage { op: 8, ids: vec![TupleSetId(3)], done: true },
            WireMsg::Notify { op: 10, ids: vec![TupleSetId(4), TupleSetId(5)] },
            WireMsg::SubCaughtUp { op: 10, version: 99 },
            WireMsg::Lagged { op: 10, missed: 1000 },
            WireMsg::SubClosed { op: 10 },
            WireMsg::Overloaded { op: 7 },
            WireMsg::Error { op: 8, message: "parse error at 1:5".into() },
            WireMsg::Goodbye { op: 0 },
            WireMsg::StatsReply {
                op: 11,
                stats: StatsBody {
                    conns_accepted: 1,
                    conns_rejected: 2,
                    conns_active: 3,
                    publishes_ok: 4,
                    publishes_rejected: 5,
                    records_ingested: 6,
                    queries: 7,
                    subscriptions: 8,
                    queue_shed: 9,
                    bytes_in: 10,
                    bytes_out: 11,
                },
            },
        ];
        for msg in &msgs {
            round_trip(msg);
        }
        // Kinds are unique per variant (the list carries two QueryPage
        // samples, hence the -1).
        let mut kinds: Vec<u8> = msgs.iter().map(WireMsg::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len() - 1, "duplicate wire kind");
    }

    #[test]
    fn unknown_kind_is_an_error_not_a_panic() {
        let err = WireMsg::decode_body(0x7f, &[0]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidTag { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Vec::new();
        WireMsg::Stats { op: 3 }.encode_body(&mut body);
        body.push(0xee);
        assert!(WireMsg::decode_body(0x04, &body).is_err());
    }

    #[test]
    fn truncated_publish_is_an_error() {
        let mut body = Vec::new();
        WireMsg::Publish { op: 1, sets: vec![sample_set(0)] }.encode_body(&mut body);
        for cut in [1, body.len() / 2, body.len() - 1] {
            assert!(
                WireMsg::decode_body(0x01, &body[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn requests_and_responses_partition_on_high_bit() {
        assert!(WireMsg::Publish { op: 1, sets: vec![] }.is_request());
        assert!(!WireMsg::Overloaded { op: 1 }.is_request());
    }
}
