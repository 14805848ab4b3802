//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the wire codecs, the fragmentation/forging pipeline and
//! the probability models.

use bytes::Bytes;
use proptest::prelude::*;
use timeshift::prelude::*;

proptest! {
    /// Fragment → reassemble is the identity for any payload and MTU.
    #[test]
    fn fragmentation_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 1..6000),
        mtu in 68u16..1500,
    ) {
        let src: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "10.0.0.2".parse().unwrap();
        let pkt = Ipv4Packet::udp(src, dst, 7, Bytes::from(payload.clone()));
        let frags = netsim::frag::fragment(pkt, mtu).unwrap();
        // Small MTUs can exceed the OS cap of 64 pending fragments per
        // pair (that cap is itself tested in netsim); lift it here to test
        // the reassembly algebra alone.
        let mut cache = DefragCache::new(DefragConfig {
            max_pending_per_pair: 4096,
            ..DefragConfig::default()
        });
        let mut out = None;
        for f in frags {
            prop_assert!(f.wire_len() <= usize::from(mtu));
            out = cache.insert(SimTime::ZERO, f);
        }
        let out = out.expect("reassembly completes");
        prop_assert_eq!(out.payload, Bytes::from(payload));
    }

    /// DNS messages round-trip through the wire format with arbitrary
    /// record mixtures.
    #[test]
    fn dns_codec_round_trips(
        txid in any::<u16>(),
        ttl in 0u32..1_000_000,
        addrs in proptest::collection::vec(any::<u32>(), 0..30),
        labels in proptest::collection::vec("[a-z]{1,12}", 1..4),
    ) {
        let name = Name::from_labels(labels.iter().map(String::as_str)).unwrap();
        let mut msg = Message::query(txid, name.clone(), RecordType::A, true);
        msg.header.qr = true;
        for a in &addrs {
            msg.answers.push(Record::a(name.clone(), ttl, std::net::Ipv4Addr::from(*a)));
        }
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// NTP packets round-trip.
    #[test]
    fn ntp_codec_round_trips(bits in any::<u64>(), stratum in 0u8..16) {
        let ts = NtpTimestamp::from_bits(bits);
        let req = NtpPacket::client_request(ts);
        let resp = NtpPacket::server_response(&req, stratum, [1, 2, 3, 4], ts, ts);
        prop_assert_eq!(NtpPacket::decode(&resp.encode()).unwrap(), resp);
    }

    /// The checksum fix-up always equalises fragment sums, for any edits.
    #[test]
    fn checksum_fixup_invariant(
        original in proptest::collection::vec(any::<u8>(), 16..512),
        replacement in any::<u32>(),
        edit_at in any::<usize>(),
        slack_at in any::<usize>(),
    ) {
        let mut modified = original.clone();
        let edit = edit_at % (modified.len() - 4);
        modified[edit..edit + 4].copy_from_slice(&replacement.to_be_bytes());
        let slack = (slack_at % (modified.len() / 2)) * 2;
        fix_fragment_sum(&original, &mut modified, slack).unwrap();
        prop_assert!(sums_match(&original, &modified));
    }

    /// §III-3 end to end: the fix-up `f2' = f2* − (sum1(f2*) − sum1(f2))`
    /// always yields a forged second fragment that, reassembled with the
    /// attacker-untouchable first fragment, forms a datagram whose UDP
    /// checksum still verifies against the checksum field riding in
    /// fragment 1.
    #[test]
    fn forged_fragment_reassembles_with_valid_udp_checksum(
        payload in proptest::collection::vec(any::<u8>(), 1200..4000),
        mtu in 68u16..600,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..16),
        slack_at in any::<usize>(),
    ) {
        let src: std::net::Ipv4Addr = "198.51.100.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "10.0.0.53".parse().unwrap();
        // A real UDP datagram with its checksum computed over the
        // pseudo-header, as the nameserver would emit it.
        let segment = UdpDatagram::new(53, 53, Bytes::from(payload)).encode(src, dst).unwrap();
        let pkt = Ipv4Packet::udp(src, dst, 0x4242, segment);
        let frags = netsim::frag::fragment(pkt, mtu).unwrap();
        prop_assert!(frags.len() >= 2, "must actually fragment at mtu {}", mtu);

        // The attacker edits the second fragment and repairs its sum via a
        // sacrificial aligned slack word.
        let original_tail = frags[1].payload.to_vec();
        let mut forged_tail = original_tail.clone();
        let tail_len = forged_tail.len();
        for &(pos, val) in &edits {
            forged_tail[pos % tail_len] = val;
        }
        let slack = (slack_at % (forged_tail.len() / 2)) * 2;
        fix_fragment_sum(&original_tail, &mut forged_tail, slack).unwrap();
        let mut spoofed = frags[1].clone();
        spoofed.payload = Bytes::from(forged_tail);

        // Reassemble first fragment + forged tail (+ any further original
        // fragments) exactly as the victim's defrag cache would.
        let mut cache = DefragCache::new(DefragConfig {
            max_pending_per_pair: 4096,
            ..DefragConfig::default()
        });
        let mut out = None;
        for f in std::iter::once(frags[0].clone())
            .chain(std::iter::once(spoofed))
            .chain(frags.iter().skip(2).cloned())
        {
            out = cache.insert(SimTime::ZERO, f);
        }
        let out = out.expect("reassembly completes");
        // The poisoned datagram passes the victim's checksum verification.
        let decoded = UdpDatagram::decode(&out.payload, src, dst);
        prop_assert!(decoded.is_ok(), "forged datagram must verify: {:?}", decoded.err());
    }

    /// The analytic P2 matches Monte Carlo within statistical tolerance.
    #[test]
    fn p2_analytic_equals_monte_carlo(m in 1u32..10, seed in any::<u64>()) {
        let n = timeshift::analysis::table3_n(m);
        let exact = p2(m, n, P_RATE);
        let mc = timeshift::analysis::p2_monte_carlo(m, n, P_RATE, 60_000, seed);
        prop_assert!((exact - mc).abs() < 0.012, "m={} exact={} mc={}", m, exact, mc);
    }

    /// P1 and P2 are monotone in the obvious directions.
    #[test]
    fn probability_monotonicity(m in 2u32..10, p in 0.01f64..0.99) {
        let n = timeshift::analysis::table3_n(m);
        // More servers to remove: harder.
        prop_assert!(p1(n + 1, p) <= p1(n, p));
        // Choosing among m is never harder than hitting n specific ones.
        prop_assert!(p2(m, n, p) + 1e-12 >= p1(n, p));
    }

    /// Chronos trimming never lets a sub-1/3 attacker move the average by
    /// more than the honest spread.
    #[test]
    fn chronos_trim_bounds_minority_influence(
        honest_n in 7usize..30,
        attacker_shift in -1000.0f64..1000.0,
    ) {
        let attacker_n = honest_n / 3; // strictly below ceil(n/3) survivor math
        let mut offsets: Vec<NtpDuration> = (0..honest_n)
            .map(|i| NtpDuration::from_nanos((i as i64 % 7) * 1_000_000))
            .collect();
        offsets.extend((0..attacker_n).map(|_| NtpDuration::from_secs_f64(attacker_shift)));
        let survivors = trim_thirds(&offsets);
        prop_assert!(!survivors.is_empty());
        for s in &survivors {
            // Survivors stay within the honest range whenever the attacker
            // is a strict minority of a third.
            prop_assert!(
                s.as_secs_f64().abs() <= 0.01 || (s.as_secs_f64() - attacker_shift).abs() > 1.0,
                "attacker value survived trimming: {}", s.as_secs_f64()
            );
        }
    }

    /// The ones'-complement sum is invariant under 16-bit word permutation
    /// — the algebra the fragment attack exploits.
    #[test]
    fn checksum_word_permutation_invariant(words in proptest::collection::vec(any::<u16>(), 1..64)) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let mut shuffled = words.clone();
        shuffled.reverse();
        let shuffled_bytes: Vec<u8> = shuffled.iter().flat_map(|w| w.to_be_bytes()).collect();
        prop_assert_eq!(
            netsim::checksum::ones_complement_sum(&bytes),
            netsim::checksum::ones_complement_sum(&shuffled_bytes)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: for any seed, the boot-time attack against ntpd lands
    /// with the full −500 s shift — the simulator has no lucky seeds.
    #[test]
    fn boot_time_attack_is_seed_robust(seed in 0u64..2000) {
        let outcome = run_boot_time_attack(
            ScenarioConfig { seed, ..ScenarioConfig::default() },
            ClientKind::Ntpd,
        );
        prop_assert!(outcome.success, "seed {}: {:?}", seed, outcome);
    }
}

/// A valid DNS response as the attack sees it on the wire: the pool
/// zone's answer to an A query for `pool.ntp.org`, with authority and
/// glue, optionally DNSSEC-signed.
fn pool_response_wire(servers: u8, ns_count: usize, signed: bool, txid: u16, seed: u64) -> Vec<u8> {
    use rand::SeedableRng;
    let addrs = (1..=u32::from(servers)).map(|i| std::net::Ipv4Addr::from(0xC000_0200 + i));
    let mut zone = pool_zone(addrs.collect(), ns_count, std::net::Ipv4Addr::new(198, 51, 100, 1));
    if signed {
        zone = zone.with_key(ZoneKey(7));
    }
    let mut server = AuthServer::new(vec![zone]);
    let query = Message::query(txid, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    server.answer(&query, &mut rng).encode().unwrap().to_vec()
}

/// A valid NTP mode-4 response.
fn ntp_response_wire(bits: u64, stratum: u8) -> Vec<u8> {
    let ts = NtpTimestamp::from_bits(bits);
    let req = NtpPacket::client_request(ts);
    NtpPacket::server_response(&req, stratum, [1, 2, 3, 4], ts, ts).encode().to_vec()
}

/// A valid mode-6 peers response.
fn control_wire(peers: &[u32]) -> Vec<u8> {
    let peers = peers.iter().map(|p| std::net::Ipv4Addr::from(*p)).collect();
    ControlMessage::PeersResponse(peers).encode().to_vec()
}

/// Feeds `wire` to the DNS decoders. Neither may panic; a message that
/// decodes must re-encode, and decoding that encoding must give the same
/// message back (decode∘encode∘decode = decode) with a record walk that
/// sees every record.
fn check_dns(wire: &[u8]) -> Result<(), TestCaseError> {
    let _ = walk_records(wire);
    let Ok(first) = Message::decode(wire) else { return Ok(()) };
    let again = first.encode();
    prop_assert!(again.is_ok(), "decoded message fails to re-encode: {:?}", again);
    let again = again.unwrap();
    let second = Message::decode(&again);
    prop_assert_eq!(second.as_ref().ok(), Some(&first));
    let spans = walk_records(&again);
    let records = first.answers.len() + first.authorities.len() + first.additionals.len();
    prop_assert_eq!(spans.map(|s| s.len()).ok(), Some(records));
    Ok(())
}

/// Feeds `wire` to the NTP decoders. Neither may panic. A packet that
/// decodes re-encodes to exactly the 48 bytes it came from; a control
/// message that decodes reaches a fixed point after one re-encode.
fn check_ntp(wire: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(packet) = NtpPacket::decode(wire) {
        let again = packet.encode();
        prop_assert_eq!(&again[..], &wire[..48]);
        prop_assert_eq!(NtpPacket::decode(&again).ok(), Some(packet));
    }
    if let Ok(control) = ControlMessage::decode(wire) {
        let again = control.encode();
        prop_assert_eq!(ControlMessage::decode(&again).ok(), Some(control));
    }
    Ok(())
}

/// Overwrites bytes of `wire` at the given (position, value) pairs.
fn mutate(mut wire: Vec<u8>, edits: &[(usize, u8)]) -> Vec<u8> {
    if !wire.is_empty() {
        let len = wire.len();
        for &(at, byte) in edits {
            wire[at % len] = byte;
        }
    }
    wire
}

proptest! {
    /// Attacker-controlled bytes: no input makes a decoder panic.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        wire in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        check_dns(&wire)?;
        check_ntp(&wire)?;
    }

    /// Every prefix of a valid datagram — what a lost or replaced tail
    /// fragment leaves — is handled without panicking.
    #[test]
    fn decoders_are_total_on_truncated_valid_input(
        servers in 1u8..40,
        ns_count in 1usize..24,
        signed in any::<bool>(),
        txid in any::<u16>(),
        seed in any::<u64>(),
        bits in any::<u64>(),
        peers in proptest::collection::vec(any::<u32>(), 0..20),
        cut in any::<usize>(),
    ) {
        let dns = pool_response_wire(servers, ns_count, signed, txid, seed);
        check_dns(&dns[..cut % (dns.len() + 1)])?;
        let ntp = ntp_response_wire(bits, 2);
        check_ntp(&ntp[..cut % (ntp.len() + 1)])?;
        let control = control_wire(&peers);
        check_ntp(&control[..cut % (control.len() + 1)])?;
    }

    /// Valid datagrams with a few bytes overwritten — counts, lengths,
    /// compression pointers, mode bits — are handled without panicking,
    /// and whatever still decodes round-trips.
    #[test]
    fn decoders_are_total_on_mutated_valid_input(
        servers in 1u8..40,
        ns_count in 1usize..24,
        signed in any::<bool>(),
        txid in any::<u16>(),
        seed in any::<u64>(),
        bits in any::<u64>(),
        stratum in any::<u8>(),
        peers in proptest::collection::vec(any::<u32>(), 0..20),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        check_dns(&mutate(pool_response_wire(servers, ns_count, signed, txid, seed), &edits))?;
        check_ntp(&mutate(ntp_response_wire(bits, stratum), &edits))?;
        check_ntp(&mutate(control_wire(&peers), &edits))?;
    }
}

/// The reference model of a name: what `Name` stored before it went wire
/// form — each label lossily converted to UTF-8 and lower-cased — with
/// the same validity rule (labels of 1..=63 bytes, at most 255 wire bytes).
fn model_name(raw: &[Vec<u8>]) -> Option<Vec<String>> {
    let labels: Vec<String> =
        raw.iter().map(|l| String::from_utf8_lossy(l).to_ascii_lowercase()).collect();
    let wire_len = 1 + labels.iter().map(|l| 1 + l.len()).sum::<usize>();
    let valid = labels.iter().all(|l| (1..=63).contains(&l.len())) && wire_len <= 255;
    valid.then_some(labels)
}

/// Shapes raw generated bytes into labels: mostly mixed-case letters,
/// digits and hyphens, sometimes raw bytes (rarely valid UTF-8).
fn shape_labels(raw: Vec<(u8, Vec<u8>)>) -> Vec<Vec<u8>> {
    const ALPHABET: &[u8] = b"aAbBcCxXyYzZ09-_";
    raw.into_iter()
        .map(|(kind, bytes)| match kind % 4 {
            0 => bytes,
            _ => bytes.iter().map(|b| ALPHABET[usize::from(*b) % ALPHABET.len()]).collect(),
        })
        .collect()
}

fn build_name(raw: &[Vec<u8>]) -> Result<Name, DnsError> {
    let mut name = Name::root();
    for label in raw {
        name.push_label(label)?;
    }
    Ok(name)
}

fn fast_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    use std::hash::BuildHasher;
    std::hash::BuildHasherDefault::<netsim::fasthash::FastHasher>::default().hash_one(value)
}

/// Raw label bytes of `1..max_len` bytes.
fn label_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..max_len)
}

fn labels_of(name: &Name) -> Vec<String> {
    name.labels().map(str::to_owned).collect()
}

proptest! {
    /// `Name` agrees with its `Vec<String>` model on validity, labels,
    /// text, equality, order and `FastHasher` hash — the contract that
    /// keeps map iteration order and campaign digests unchanged — across
    /// mixed case, non-UTF-8 bytes and names past the inline capacity.
    #[test]
    fn name_matches_label_vector_model(
        raw_a in proptest::collection::vec((any::<u8>(), label_bytes(64)), 0..9),
        raw_b in proptest::collection::vec((any::<u8>(), label_bytes(40)), 0..9),
        child_label in "[a-zA-Z0-9-]{1,70}",
        cut in any::<usize>(),
    ) {
        let raw_a = shape_labels(raw_a);
        let raw_b = shape_labels(raw_b);
        let built = build_name(&raw_a);
        let Some(ma) = model_name(&raw_a) else {
            prop_assert!(built.is_err(), "model rejects {:?}", raw_a);
            return Ok(());
        };
        let a = built.expect("model accepts");
        prop_assert_eq!(labels_of(&a), ma.clone());
        prop_assert_eq!(a.label_count(), ma.len());
        prop_assert_eq!(a.wire_len(), 1 + ma.iter().map(|l| 1 + l.len()).sum::<usize>());
        let text = if ma.is_empty() { ".".to_string() } else { ma.join(".") };
        prop_assert_eq!(a.to_string(), text);
        prop_assert_eq!(fast_hash(&a), fast_hash(&ma));
        prop_assert_eq!(Name::from_labels(&ma).expect("model labels are valid"), a.clone());

        // Case folding: the upper-cased spelling is the same name.
        let upper: Vec<Vec<u8>> = raw_a.iter().map(|l| l.to_ascii_uppercase()).collect();
        let a_upper = build_name(&upper).expect("same lengths as a");
        prop_assert_eq!(&a_upper, &a);
        prop_assert_eq!(fast_hash(&a_upper), fast_hash(&a));

        if let (Ok(b), Some(mb)) = (build_name(&raw_b), model_name(&raw_b)) {
            prop_assert_eq!(a == b, ma == mb);
            prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
            prop_assert_eq!(fast_hash(&b), fast_hash(&mb));
            let model_sub = mb.len() <= ma.len() && ma[ma.len() - mb.len()..] == mb[..];
            prop_assert_eq!(a.is_subdomain_of(&b), model_sub);
        }

        // Suffixes: the parent chain and the subdomain relation.
        let k = cut % (ma.len() + 1);
        let suffix = Name::from_labels(&ma[k..]).expect("a suffix of a valid name");
        prop_assert!(a.is_subdomain_of(&suffix));
        prop_assert_eq!(suffix.is_subdomain_of(&a), k == 0);
        let model_parent = (!ma.is_empty()).then(|| ma[1..].to_vec());
        prop_assert_eq!(a.parent().map(|p| labels_of(&p)), model_parent);
        let chain: Vec<Vec<String>> = a.self_and_ancestors().map(|n| labels_of(&n)).collect();
        let model_chain: Vec<Vec<String>> = (0..=ma.len()).map(|k| ma[k..].to_vec()).collect();
        prop_assert_eq!(chain, model_chain);

        // Children validate exactly like a fresh label vector.
        let mut model_child = vec![child_label.to_ascii_lowercase()];
        model_child.extend(ma.iter().cloned());
        let model_child: Vec<Vec<u8>> = model_child.iter().map(|l| l.as_bytes().to_vec()).collect();
        let model_child = model_name(&model_child);
        let child = a.child(&child_label);
        prop_assert_eq!(child.as_ref().ok().map(labels_of), model_child);
        if let Ok(child) = &child {
            prop_assert_eq!(child.parent(), Some(a.clone()));
        }

        // Long names survive the codec, compressed against each other.
        let mut msg = Message::query(7, a.clone(), RecordType::A, false);
        msg.header.qr = true;
        msg.answers.push(Record::a(a.clone(), 60, std::net::Ipv4Addr::new(192, 0, 2, 1)));
        msg.authorities.push(Record::ns(suffix.clone(), 60, a.clone()));
        if let Ok(child) = child {
            msg.additionals.push(Record::a(child, 60, std::net::Ipv4Addr::new(192, 0, 2, 2)));
        }
        let back = Message::decode(&msg.encode().expect("encodes")).expect("decodes");
        prop_assert_eq!(back, msg);
    }
}
