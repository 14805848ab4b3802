//! Layer probes for the traced run: the protocol-layer calls the
//! workloads make most, each timed in a loop between two kernel samples
//! and counted by the allocator, on the same inputs the attack scenarios
//! use.

use std::hint::black_box;
use std::net::Ipv4Addr;

use attack::prelude::{forge_tail, walk_records, FORCED_MTU};
use bench::engine_driver;
use campaign::record::{decode_line, Schema};
use dns::prelude::{malicious_pool_zone, pool_zone, AuthServer, Message, RecordType};
use ntp::prelude::{NtpPacket, NtpTimestamp};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::alloc;
use crate::kernel::{median, Meter};

/// Bracketed repeats per probe; the probe reports their median.
const REPEATS: usize = 5;
/// Target wall time of one bracketed repeat.
const REPEAT_S: f64 = 0.01;

/// One probed operation's cost.
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    /// Normalised seconds per call.
    pub secs: f64,
    /// Allocations per call.
    pub allocs: f64,
}

/// Times `op` (calls per repeat sized from one warm calibration call) and
/// counts that call's allocations. Counting must be on.
fn probe(meter: &mut Meter, mut op: impl FnMut()) -> OpCost {
    op();
    let start = std::time::Instant::now();
    let (a0, _) = alloc::snapshot();
    op();
    let (a1, _) = alloc::snapshot();
    let one = start.elapsed().as_secs_f64().max(1e-9);
    let calls = ((REPEAT_S / one) as usize).clamp(1, 1_000_000);
    let norms: Vec<f64> = (0..REPEATS)
        .map(|_| {
            meter
                .time(|| {
                    for _ in 0..calls {
                        op();
                    }
                })
                .1
                .norm
                / calls as f64
        })
        .collect();
    OpCost { secs: median(&norms), allocs: (a1 - a0) as f64 }
}

pub struct LayerCosts {
    pub dns_encode: OpCost,
    pub dns_decode: OpCost,
    pub dns_answer: OpCost,
    pub ntp_encode: OpCost,
    pub ntp_decode: OpCost,
    pub walk_records: OpCost,
    pub forge_tail: OpCost,
    pub decode_line: OpCost,
    /// Engine-ring events per normalised second.
    pub ring_events_per_s: f64,
}

/// Probes every layer. `lines` are a pass's record lines under `schema`,
/// for the record decoder. Returns `None` when an input the attacks rely
/// on fails to encode, decode or forge.
pub fn run(meter: &mut Meter, schema: &Schema, lines: &[String]) -> Option<LayerCosts> {
    // The DNS answers of `timeshift::scenario::Scenario::build`: the
    // honest 23-nameserver pool zone (whose glue fills the second fragment
    // at the forced MTU) and the attacker's 89-address zone.
    let pool: Vec<Ipv4Addr> = (1..=8u32).map(|i| Ipv4Addr::from(0xC000_0200 + i)).collect();
    let malicious: Vec<Ipv4Addr> = (1..=89u32).map(|i| Ipv4Addr::from(0x4242_0100 + i)).collect();
    let mut servers = [
        AuthServer::new(vec![pool_zone(pool, 23, Ipv4Addr::new(198, 51, 100, 1))]),
        AuthServer::new(vec![malicious_pool_zone(malicious, 89, 2 * 86_400)]),
    ];
    let query = Message::query(0x4242, "pool.ntp.org".parse().ok()?, RecordType::A, false);
    let mut rng = SmallRng::seed_from_u64(7);
    let answers: Vec<Message> = servers.iter_mut().map(|s| s.answer(&query, &mut rng)).collect();
    let wire: Vec<_> = answers.iter().map(Message::encode).collect::<Result<_, _>>().ok()?;
    for w in &wire {
        Message::decode(w).ok()?;
    }
    let boot_response = &wire[0];
    walk_records(boot_response).ok()?;
    forge_tail(boot_response, FORCED_MTU, Ipv4Addr::new(66, 66, 0, 1)).ok()?;
    let request = NtpPacket::client_request(NtpTimestamp::from_secs_nanos(3_850_000_000, 1));
    let response = NtpPacket::server_response(
        &request,
        2,
        *b"GPS\0",
        NtpTimestamp::from_secs_nanos(3_850_000_000, 5_000),
        NtpTimestamp::from_secs_nanos(3_850_000_000, 9_000),
    );
    let ntp_wire = response.encode();
    NtpPacket::decode(&ntp_wire).ok()?;
    for line in lines {
        decode_line(schema, line).ok()?;
    }

    // Per-call costs of the DNS probes are the mean over the honest and
    // the malicious answer.
    let half = |c: OpCost| OpCost { secs: c.secs / 2.0, allocs: c.allocs / 2.0 };
    let dns_answer = half(probe(meter, || {
        for s in &mut servers {
            black_box(s.answer(black_box(&query), &mut rng));
        }
    }));
    let dns_encode = half(probe(meter, || {
        for a in &answers {
            let _ = black_box(black_box(a).encode());
        }
    }));
    let dns_decode = half(probe(meter, || {
        for w in &wire {
            let _ = black_box(Message::decode(black_box(w)));
        }
    }));
    let ntp_encode = probe(meter, || {
        black_box(black_box(&response).encode());
    });
    let ntp_decode = probe(meter, || {
        let _ = black_box(NtpPacket::decode(black_box(&ntp_wire)));
    });
    let walk = probe(meter, || {
        let _ = black_box(walk_records(black_box(boot_response)));
    });
    let forge = probe(meter, || {
        let _ = black_box(forge_tail(
            black_box(boot_response),
            FORCED_MTU,
            Ipv4Addr::new(66, 66, 0, 1),
        ));
    });
    let per_line = |c: OpCost| OpCost {
        secs: c.secs / lines.len().max(1) as f64,
        allocs: c.allocs / lines.len().max(1) as f64,
    };
    let decode = per_line(probe(meter, || {
        for line in lines {
            let _ = black_box(decode_line(schema, black_box(line)));
        }
    }));
    let ring: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (stats, t) = meter.time(|| engine_driver::drive(1));
            stats.events_dispatched as f64 / t.norm
        })
        .collect();
    Some(LayerCosts {
        dns_encode,
        dns_decode,
        dns_answer,
        ntp_encode,
        ntp_decode,
        walk_records: walk,
        forge_tail: forge,
        decode_line: decode,
        ring_events_per_s: median(&ring),
    })
}
