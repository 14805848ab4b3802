//! Offset-preserving walk over an encoded DNS response.
//!
//! The fragment forger needs to know *where in the byte stream* each record
//! field sits — which glue addresses fall into the second fragment, where a
//! TTL can serve as checksum slack. This walker parses the wire format
//! without building a full [`dns::message::Message`], reporting byte spans.

use dns::error::DnsError;
use dns::name::Name;
use dns::record::RecordType;

/// Which message section a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// The byte layout of one resource record within the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Owner name (decoded through compression pointers).
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
    /// Section the record belongs to.
    pub section: Section,
    /// Byte offset of the record's start (owner name).
    pub record_offset: usize,
    /// Byte offset of the 4-byte TTL field.
    pub ttl_offset: usize,
    /// Byte offset of the RDATA.
    pub rdata_offset: usize,
    /// RDATA length in bytes.
    pub rdata_len: usize,
}

/// Walks all records of an encoded DNS message, in order.
///
/// # Errors
///
/// Returns [`DnsError`] on malformed input.
pub fn walk_records(dns_bytes: &[u8]) -> Result<Vec<RecordSpan>, DnsError> {
    if dns_bytes.len() < 12 {
        return Err(DnsError::Truncated { context: "header" });
    }
    let qdcount = u16::from_be_bytes([dns_bytes[4], dns_bytes[5]]);
    let ancount = u16::from_be_bytes([dns_bytes[6], dns_bytes[7]]);
    let nscount = u16::from_be_bytes([dns_bytes[8], dns_bytes[9]]);
    let arcount = u16::from_be_bytes([dns_bytes[10], dns_bytes[11]]);
    let mut pos = 12usize;
    for _ in 0..qdcount {
        pos = skip_name(dns_bytes, pos)?;
        pos += 4; // qtype + qclass
    }
    // Every record takes at least 11 bytes (a root owner and the fixed
    // fields), so the counts cannot ask for more than the input holds.
    let records = usize::from(ancount) + usize::from(nscount) + usize::from(arcount);
    let mut spans = Vec::with_capacity(records.min(dns_bytes.len() / 11));
    let sections =
        [(Section::Answer, ancount), (Section::Authority, nscount), (Section::Additional, arcount)];
    for (section, count) in sections {
        for _ in 0..count {
            let record_offset = pos;
            let (name, after_name) = read_name(dns_bytes, pos)?;
            pos = after_name;
            if pos + 10 > dns_bytes.len() {
                return Err(DnsError::Truncated { context: "record fixed fields" });
            }
            let rtype =
                RecordType::from_code(u16::from_be_bytes([dns_bytes[pos], dns_bytes[pos + 1]]));
            let ttl_offset = pos + 4;
            let rdata_len =
                usize::from(u16::from_be_bytes([dns_bytes[pos + 8], dns_bytes[pos + 9]]));
            let rdata_offset = pos + 10;
            if rdata_offset + rdata_len > dns_bytes.len() {
                return Err(DnsError::Truncated { context: "rdata" });
            }
            pos = rdata_offset + rdata_len;
            spans.push(RecordSpan {
                name,
                rtype,
                section,
                record_offset,
                ttl_offset,
                rdata_offset,
                rdata_len,
            });
        }
    }
    Ok(spans)
}

/// Skips a (possibly compressed) name, returning the position after it.
fn skip_name(data: &[u8], mut pos: usize) -> Result<usize, DnsError> {
    loop {
        let len = *data.get(pos).ok_or(DnsError::Truncated { context: "name" })?;
        if len & 0xC0 == 0xC0 {
            return Ok(pos + 2);
        }
        if len == 0 {
            return Ok(pos + 1);
        }
        pos += 1 + usize::from(len);
    }
}

/// Reads a (possibly compressed) name, returning it and the position after
/// the in-stream representation.
fn read_name(data: &[u8], start: usize) -> Result<(Name, usize), DnsError> {
    let mut name = Name::root();
    let mut bad_name = None;
    let mut pos = start;
    let mut after = None;
    let mut hops = 0;
    loop {
        let len = *data.get(pos).ok_or(DnsError::Truncated { context: "name" })?;
        if len & 0xC0 == 0xC0 {
            let lo = *data.get(pos + 1).ok_or(DnsError::Truncated { context: "pointer" })?;
            if after.is_none() {
                after = Some(pos + 2);
            }
            hops += 1;
            if hops > 32 {
                return Err(DnsError::BadPointer);
            }
            pos = usize::from(u16::from_be_bytes([len & 0x3F, lo]));
        } else if len == 0 {
            pos += 1;
            break;
        } else {
            let n = usize::from(len);
            if pos + 1 + n > data.len() {
                return Err(DnsError::Truncated { context: "label" });
            }
            if bad_name.is_none() {
                bad_name = name.push_label(&data[pos + 1..pos + 1 + n]).err();
            }
            pos += 1 + n;
        }
    }
    match bad_name {
        Some(err) => Err(err),
        None => Ok((name, after.unwrap_or(pos))),
    }
}

/// Convenience: the glue A records (additional-section A records) of a
/// response, in order.
pub fn glue_spans(spans: &[RecordSpan]) -> Vec<&RecordSpan> {
    spans.iter().filter(|s| s.section == Section::Additional && s.rtype == RecordType::A).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn sample_response() -> (Message, Vec<u8>) {
        let servers: Vec<Ipv4Addr> = (1..=8).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
        let zone = pool_zone(servers, 23, Ipv4Addr::new(198, 51, 100, 1));
        let mut srv = AuthServer::new(vec![zone]);
        let query = Message::query(7, "pool.ntp.org".parse().unwrap(), RecordType::A, false);
        let resp = srv.answer(&query, &mut SmallRng::seed_from_u64(5));
        let wire = resp.encode().unwrap().to_vec();
        (resp, wire)
    }

    #[test]
    fn walk_finds_all_records_in_order() {
        let (resp, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        assert_eq!(
            spans.len(),
            resp.answers.len() + resp.authorities.len() + resp.additionals.len()
        );
        assert_eq!(spans.iter().filter(|s| s.section == Section::Answer).count(), 4);
        assert_eq!(glue_spans(&spans).len(), 23);
        // Offsets are strictly increasing.
        for pair in spans.windows(2) {
            assert!(pair[0].record_offset < pair[1].record_offset);
        }
    }

    #[test]
    fn rdata_offsets_point_at_the_actual_addresses() {
        let (resp, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        for (span, record) in glue_spans(&spans).iter().zip(&resp.additionals) {
            assert_eq!(span.name, record.name);
            let addr = Ipv4Addr::new(
                wire[span.rdata_offset],
                wire[span.rdata_offset + 1],
                wire[span.rdata_offset + 2],
                wire[span.rdata_offset + 3],
            );
            assert_eq!(Some(addr), record.as_a());
        }
    }

    #[test]
    fn ttl_offsets_point_at_ttls() {
        let (_, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        for span in glue_spans(&spans) {
            let ttl = u32::from_be_bytes([
                wire[span.ttl_offset],
                wire[span.ttl_offset + 1],
                wire[span.ttl_offset + 2],
                wire[span.ttl_offset + 3],
            ]);
            assert_eq!(ttl, 3600);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let (_, wire) = sample_response();
        assert!(walk_records(&wire[..wire.len() - 3]).is_err());
        assert!(walk_records(&wire[..8]).is_err());
    }

    #[test]
    fn glue_lands_beyond_the_fragment_split() {
        // The attack's layout precondition: at MTU 548 the first fragment
        // carries 528 IP-payload bytes = 8 UDP header + 520 DNS bytes; all
        // glue RDATA must sit at DNS offset ≥ 520.
        let (_, wire) = sample_response();
        let spans = walk_records(&wire).unwrap();
        let first_glue = glue_spans(&spans)[0];
        assert!(
            first_glue.rdata_offset >= 520,
            "first glue rdata at {} must be ≥ 520",
            first_glue.rdata_offset
        );
    }
}
