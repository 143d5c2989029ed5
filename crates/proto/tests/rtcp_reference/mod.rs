//! The RTCP encoder and decoder as they were written before the writers
//! and the borrowed walk replaced them: one owned `Vec` per packet, one
//! hand-written decoder per packet type. Kept verbatim as the oracle the
//! property tests hold the new code to.

use scallop_proto::error::ProtoError;
use scallop_proto::rtcp::{
    Bye, Nack, Pli, ReceiverReport, Remb, ReportBlock, RtcpPacket, Sdes, SenderReport, PT_BYE,
    PT_PSFB, PT_RR, PT_RTPFB, PT_SDES, PT_SR,
};

fn need(buf: &[u8], needed: usize) -> Result<(), ProtoError> {
    if buf.len() < needed {
        Err(ProtoError::Truncated {
            needed,
            got: buf.len(),
        })
    } else {
        Ok(())
    }
}

fn push_header(out: &mut Vec<u8>, count_or_fmt: u8, pt: u8, body_len: usize) {
    debug_assert_eq!(body_len % 4, 0);
    out.push(0x80 | (count_or_fmt & 0x1F));
    out.push(pt);
    out.extend_from_slice(&((body_len / 4) as u16).to_be_bytes());
}

fn push_report_block(out: &mut Vec<u8>, b: &ReportBlock) {
    out.extend_from_slice(&b.ssrc.to_be_bytes());
    out.push(b.fraction_lost);
    let cum = b.cumulative_lost.min(0x00FF_FFFF);
    out.extend_from_slice(&cum.to_be_bytes()[1..4]);
    out.extend_from_slice(&b.highest_seq.to_be_bytes());
    out.extend_from_slice(&b.jitter.to_be_bytes());
    out.extend_from_slice(&b.lsr.to_be_bytes());
    out.extend_from_slice(&b.dlsr.to_be_bytes());
}

fn parse_report_block(buf: &[u8]) -> ReportBlock {
    ReportBlock {
        ssrc: u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
        fraction_lost: buf[4],
        cumulative_lost: u32::from_be_bytes([0, buf[5], buf[6], buf[7]]),
        highest_seq: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
        jitter: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
        lsr: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
        dlsr: u32::from_be_bytes([buf[20], buf[21], buf[22], buf[23]]),
    }
}

/// Serialize one RTCP packet (header + body).
pub fn serialize(pkt: &RtcpPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match pkt {
        RtcpPacket::Sr(sr) => {
            let body_len = 24 + sr.reports.len() * 24;
            push_header(&mut out, sr.reports.len() as u8, PT_SR, body_len);
            out.extend_from_slice(&sr.ssrc.to_be_bytes());
            out.extend_from_slice(&sr.ntp_sec.to_be_bytes());
            out.extend_from_slice(&sr.ntp_frac.to_be_bytes());
            out.extend_from_slice(&sr.rtp_ts.to_be_bytes());
            out.extend_from_slice(&sr.packet_count.to_be_bytes());
            out.extend_from_slice(&sr.octet_count.to_be_bytes());
            for b in &sr.reports {
                push_report_block(&mut out, b);
            }
        }
        RtcpPacket::Rr(rr) => {
            let body_len = 4 + rr.reports.len() * 24;
            push_header(&mut out, rr.reports.len() as u8, PT_RR, body_len);
            out.extend_from_slice(&rr.ssrc.to_be_bytes());
            for b in &rr.reports {
                push_report_block(&mut out, b);
            }
        }
        RtcpPacket::Sdes(sdes) => {
            let mut body = Vec::new();
            for (ssrc, cname) in &sdes.chunks {
                body.extend_from_slice(&ssrc.to_be_bytes());
                body.push(1); // CNAME item type
                body.push(cname.len().min(255) as u8);
                body.extend_from_slice(&cname.as_bytes()[..cname.len().min(255)]);
                body.push(0); // end of items
                while body.len() % 4 != 0 {
                    body.push(0);
                }
            }
            push_header(&mut out, sdes.chunks.len() as u8, PT_SDES, body.len());
            out.extend_from_slice(&body);
        }
        RtcpPacket::Bye(bye) => {
            let body_len = bye.ssrcs.len() * 4;
            push_header(&mut out, bye.ssrcs.len() as u8, PT_BYE, body_len);
            for s in &bye.ssrcs {
                out.extend_from_slice(&s.to_be_bytes());
            }
        }
        RtcpPacket::Nack(nack) => {
            let body_len = 8 + nack.entries.len() * 4;
            push_header(&mut out, 1, PT_RTPFB, body_len);
            out.extend_from_slice(&nack.sender_ssrc.to_be_bytes());
            out.extend_from_slice(&nack.media_ssrc.to_be_bytes());
            for (pid, blp) in &nack.entries {
                out.extend_from_slice(&pid.to_be_bytes());
                out.extend_from_slice(&blp.to_be_bytes());
            }
        }
        RtcpPacket::Pli(pli) => {
            push_header(&mut out, 1, PT_PSFB, 8);
            out.extend_from_slice(&pli.sender_ssrc.to_be_bytes());
            out.extend_from_slice(&pli.media_ssrc.to_be_bytes());
        }
        RtcpPacket::Remb(remb) => {
            let body_len = 8 + 8 + remb.ssrcs.len() * 4;
            push_header(&mut out, 15, PT_PSFB, body_len);
            out.extend_from_slice(&remb.sender_ssrc.to_be_bytes());
            out.extend_from_slice(&0u32.to_be_bytes()); // media ssrc = 0 per spec
            out.extend_from_slice(b"REMB");
            // 8-bit ssrc count, 6-bit exponent, 18-bit mantissa.
            let (exp, mantissa) = encode_remb_bitrate(remb.bitrate_bps);
            out.push(remb.ssrcs.len() as u8);
            let word: u32 = ((exp as u32) << 18) | mantissa;
            out.extend_from_slice(&word.to_be_bytes()[1..4]);
            for s in &remb.ssrcs {
                out.extend_from_slice(&s.to_be_bytes());
            }
        }
    }
    out
}

/// Encode a bitrate as REMB's 6-bit exponent / 18-bit mantissa.
fn encode_remb_bitrate(bps: u64) -> (u8, u32) {
    let mut exp = 0u8;
    let mut mantissa = bps;
    while mantissa >= (1 << 18) {
        mantissa >>= 1;
        exp += 1;
        if exp >= 63 {
            return (63, (1 << 18) - 1);
        }
    }
    (exp, mantissa as u32)
}

/// Parse a single RTCP packet starting at `buf[0]`. Returns the packet and
/// its total encoded length.
pub fn parse_one(buf: &[u8]) -> Result<(RtcpPacket, usize), ProtoError> {
    need(buf, 4)?;
    if buf[0] >> 6 != 2 {
        return Err(ProtoError::BadMagic);
    }
    let count_or_fmt = buf[0] & 0x1F;
    let pt = buf[1];
    let words = u16::from_be_bytes([buf[2], buf[3]]) as usize;
    let total = 4 + words * 4;
    need(buf, total)?;
    let body = &buf[4..total];

    let pkt = match pt {
        PT_SR => {
            need(body, 24)?;
            let n = count_or_fmt as usize;
            need(body, 24 + n * 24)?;
            let mut reports = Vec::with_capacity(n);
            for i in 0..n {
                reports.push(parse_report_block(&body[24 + i * 24..]));
            }
            RtcpPacket::Sr(SenderReport {
                ssrc: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                ntp_sec: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                ntp_frac: u32::from_be_bytes([body[8], body[9], body[10], body[11]]),
                rtp_ts: u32::from_be_bytes([body[12], body[13], body[14], body[15]]),
                packet_count: u32::from_be_bytes([body[16], body[17], body[18], body[19]]),
                octet_count: u32::from_be_bytes([body[20], body[21], body[22], body[23]]),
                reports,
            })
        }
        PT_RR => {
            need(body, 4)?;
            let n = count_or_fmt as usize;
            need(body, 4 + n * 24)?;
            let mut reports = Vec::with_capacity(n);
            for i in 0..n {
                reports.push(parse_report_block(&body[4 + i * 24..]));
            }
            RtcpPacket::Rr(ReceiverReport {
                ssrc: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                reports,
            })
        }
        PT_SDES => {
            let mut chunks = Vec::new();
            let mut rest = body;
            for _ in 0..count_or_fmt {
                need(rest, 4)?;
                let ssrc = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
                rest = &rest[4..];
                let mut cname = String::new();
                // Items until a zero terminator.
                loop {
                    need(rest, 1)?;
                    let item = rest[0];
                    rest = &rest[1..];
                    if item == 0 {
                        break;
                    }
                    need(rest, 1)?;
                    let len = rest[0] as usize;
                    need(&rest[1..], len)?;
                    if item == 1 {
                        cname = String::from_utf8_lossy(&rest[1..1 + len]).into_owned();
                    }
                    rest = &rest[1 + len..];
                }
                // Skip pad to 32-bit boundary.
                let consumed = body.len() - rest.len();
                let pad = (4 - consumed % 4) % 4;
                need(rest, pad)?;
                rest = &rest[pad..];
                chunks.push((ssrc, cname));
            }
            RtcpPacket::Sdes(Sdes { chunks })
        }
        PT_BYE => {
            let n = count_or_fmt as usize;
            need(body, n * 4)?;
            let ssrcs = (0..n)
                .map(|i| {
                    u32::from_be_bytes([
                        body[i * 4],
                        body[i * 4 + 1],
                        body[i * 4 + 2],
                        body[i * 4 + 3],
                    ])
                })
                .collect();
            RtcpPacket::Bye(Bye { ssrcs })
        }
        PT_RTPFB => {
            if count_or_fmt != 1 {
                return Err(ProtoError::Unsupported("RTPFB format"));
            }
            need(body, 8)?;
            let sender_ssrc = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
            let media_ssrc = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
            let mut entries = Vec::new();
            let mut rest = &body[8..];
            while rest.len() >= 4 {
                entries.push((
                    u16::from_be_bytes([rest[0], rest[1]]),
                    u16::from_be_bytes([rest[2], rest[3]]),
                ));
                rest = &rest[4..];
            }
            RtcpPacket::Nack(Nack {
                sender_ssrc,
                media_ssrc,
                entries,
            })
        }
        PT_PSFB => match count_or_fmt {
            1 => {
                need(body, 8)?;
                RtcpPacket::Pli(Pli {
                    sender_ssrc: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                    media_ssrc: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                })
            }
            15 => {
                need(body, 16)?;
                if &body[8..12] != b"REMB" {
                    return Err(ProtoError::Malformed("ALFB without REMB magic"));
                }
                let sender_ssrc = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
                let num = body[12] as usize;
                let exp = (body[13] >> 2) as u32;
                let mantissa =
                    (((body[13] & 0x03) as u32) << 16) | ((body[14] as u32) << 8) | body[15] as u32;
                let bitrate_bps = (mantissa as u64) << exp;
                need(body, 16 + num * 4)?;
                let ssrcs = (0..num)
                    .map(|i| {
                        let o = 16 + i * 4;
                        u32::from_be_bytes([body[o], body[o + 1], body[o + 2], body[o + 3]])
                    })
                    .collect();
                RtcpPacket::Remb(Remb {
                    sender_ssrc,
                    bitrate_bps,
                    ssrcs,
                })
            }
            _ => return Err(ProtoError::Unsupported("PSFB format")),
        },
        _ => return Err(ProtoError::Unsupported("RTCP packet type")),
    };
    Ok((pkt, total))
}

/// Parse a compound RTCP datagram into its constituent packets.
pub fn parse_compound(buf: &[u8]) -> Result<Vec<RtcpPacket>, ProtoError> {
    let mut out = Vec::new();
    let mut rest = buf;
    while !rest.is_empty() {
        let (pkt, used) = parse_one(rest)?;
        out.push(pkt);
        rest = &rest[used..];
    }
    Ok(out)
}

/// `Nack::from_lost_sequences`'s compression loop.
pub fn nack_entries(lost: &[u16]) -> Vec<(u16, u16)> {
    let mut entries: Vec<(u16, u16)> = Vec::new();
    for &seq in lost {
        if let Some(last) = entries.last_mut() {
            let delta = seq.wrapping_sub(last.0);
            if (1..=16).contains(&delta) {
                last.1 |= 1 << (delta - 1);
                continue;
            }
        }
        entries.push((seq, 0));
    }
    entries
}

/// `Nack::lost_sequences`'s expansion loop.
pub fn nack_lost(entries: &[(u16, u16)]) -> Vec<u16> {
    let mut out = Vec::new();
    for &(pid, blp) in entries {
        out.push(pid);
        for bit in 0..16 {
            if blp & (1 << bit) != 0 {
                out.push(pid.wrapping_add(bit + 1));
            }
        }
    }
    out
}
