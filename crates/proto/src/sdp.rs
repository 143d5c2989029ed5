//! Session Description Protocol (offer/answer subset for WebRTC).
//!
//! Scallop's controller acts as the signaling server: it intercepts SDP
//! offers/answers exchanged between participants and rewrites the ICE
//! connection candidates so the switch becomes each participant's sole
//! apparent peer (§5.1 "Controlling Signaling to Create Proxy Topology").
//! This module implements exactly what that requires: parse, candidate
//! inspection/rewriting, SSRC discovery, and re-serialization.
//!
//! Omitted: full RFC 4566 grammar (bandwidth lines, repeat times, crypto
//! attributes) — unknown lines are preserved verbatim so rewriting is
//! lossless for everything this reproduction does not interpret.

use crate::error::ProtoError;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// Media section kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaKind {
    /// `m=audio`
    Audio,
    /// `m=video`
    Video,
}

impl MediaKind {
    fn as_str(&self) -> &'static str {
        match self {
            MediaKind::Audio => "audio",
            MediaKind::Video => "video",
        }
    }
}

/// One ICE candidate (`a=candidate:` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Foundation token.
    pub foundation: String,
    /// Component id (1 = RTP; WebRTC bundles RTCP).
    pub component: u8,
    /// Transport ("udp").
    pub transport: String,
    /// Candidate priority.
    pub priority: u32,
    /// Advertised address.
    pub ip: Ipv4Addr,
    /// Advertised port.
    pub port: u16,
    /// Candidate type ("host", "srflx", ...).
    pub typ: String,
}

impl Candidate {
    /// A host candidate with a standard priority.
    pub fn host(ip: Ipv4Addr, port: u16) -> Candidate {
        Candidate {
            foundation: "1".into(),
            component: 1,
            transport: "udp".into(),
            priority: 2_130_706_431,
            ip,
            port,
            typ: "host".into(),
        }
    }

    fn to_attr_value(&self) -> String {
        format!(
            "{} {} {} {} {} {} typ {}",
            self.foundation,
            self.component,
            self.transport,
            self.priority,
            self.ip,
            self.port,
            self.typ
        )
    }

    fn parse(value: &str) -> Result<Candidate, ProtoError> {
        let parts: Vec<&str> = value.split_whitespace().collect();
        if parts.len() < 8 || parts[6] != "typ" {
            return Err(ProtoError::Malformed("candidate line"));
        }
        Ok(Candidate {
            foundation: parts[0].to_string(),
            component: parts[1]
                .parse()
                .map_err(|_| ProtoError::Malformed("candidate component"))?,
            transport: parts[2].to_string(),
            priority: parts[3]
                .parse()
                .map_err(|_| ProtoError::Malformed("candidate priority"))?,
            ip: parts[4]
                .parse()
                .map_err(|_| ProtoError::Malformed("candidate ip"))?,
            port: parts[5]
                .parse()
                .map_err(|_| ProtoError::Malformed("candidate port"))?,
            typ: parts[7].to_string(),
        })
    }
}

/// A media section (`m=` line plus its attributes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaSection {
    /// Audio or video.
    pub kind: MediaKind,
    /// Port from the `m=` line.
    pub port: u16,
    /// Transport profile (e.g. "UDP/RTP/AVPF").
    pub protocol: String,
    /// Payload type numbers offered.
    pub payload_types: Vec<u8>,
    /// ICE candidates in this section.
    pub candidates: Vec<Candidate>,
    /// SSRCs announced via `a=ssrc:`.
    pub ssrcs: Vec<u32>,
    /// `a=mid:` value, if present.
    pub mid: Option<String>,
    /// Direction attribute (`sendrecv`, `sendonly`, `recvonly`), default
    /// sendrecv.
    pub direction: String,
    /// All other `a=` lines, preserved verbatim (without the `a=`).
    pub other_attributes: Vec<String>,
}

impl MediaSection {
    /// A new section with defaults.
    pub fn new(kind: MediaKind, port: u16) -> MediaSection {
        MediaSection {
            kind,
            port,
            protocol: "UDP/RTP/AVPF".into(),
            payload_types: vec![if matches!(kind, MediaKind::Audio) {
                111
            } else {
                96
            }],
            candidates: Vec::new(),
            ssrcs: Vec::new(),
            mid: None,
            direction: "sendrecv".into(),
            other_attributes: Vec::new(),
        }
    }
}

/// A parsed session description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDescription {
    /// `o=` username/session fields (free-form here).
    pub origin: String,
    /// `s=` session name.
    pub session_name: String,
    /// Session-level connection address (`c=`), if any.
    pub connection_ip: Option<Ipv4Addr>,
    /// Media sections.
    pub media: Vec<MediaSection>,
}

impl SessionDescription {
    /// An empty description for the given originator.
    pub fn new(origin: impl Into<String>) -> SessionDescription {
        SessionDescription {
            origin: origin.into(),
            session_name: "-".into(),
            connection_ip: None,
            media: Vec::new(),
        }
    }

    /// All candidates across all media sections.
    pub fn all_candidates(&self) -> impl Iterator<Item = &Candidate> {
        self.media.iter().flat_map(|m| m.candidates.iter())
    }

    /// Serialize to SDP text.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("v=0\r\n");
        let _ = writeln!(out, "o={} 0 0 IN IP4 0.0.0.0\r", self.origin);
        let _ = writeln!(out, "s={}\r", self.session_name);
        if let Some(ip) = self.connection_ip {
            let _ = writeln!(out, "c=IN IP4 {ip}\r");
        }
        out.push_str("t=0 0\r\n");
        for m in &self.media {
            let pts: Vec<String> = m.payload_types.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(
                out,
                "m={} {} {} {}\r",
                m.kind.as_str(),
                m.port,
                m.protocol,
                pts.join(" ")
            );
            if let Some(mid) = &m.mid {
                let _ = writeln!(out, "a=mid:{mid}\r");
            }
            let _ = writeln!(out, "a={}\r", m.direction);
            for c in &m.candidates {
                let _ = writeln!(out, "a=candidate:{}\r", c.to_attr_value());
            }
            for s in &m.ssrcs {
                let _ = writeln!(out, "a=ssrc:{s} cname:scallop\r");
            }
            for a in &m.other_attributes {
                let _ = writeln!(out, "a={a}\r");
            }
        }
        out
    }

    /// Parse from SDP text.
    pub fn parse(text: &str) -> Result<SessionDescription, ProtoError> {
        let mut sd = SessionDescription::new("-");
        let mut saw_v = false;
        let mut current: Option<MediaSection> = None;
        for raw in text.lines() {
            let line = raw.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ProtoError::Malformed("SDP line without '='"));
            };
            match key {
                "v" => {
                    if value != "0" {
                        return Err(ProtoError::BadMagic);
                    }
                    saw_v = true;
                }
                "o" => {
                    sd.origin = value.split_whitespace().next().unwrap_or("-").to_string();
                }
                "s" => sd.session_name = value.to_string(),
                "c" => {
                    // "IN IP4 <addr>"
                    if let Some(addr) = value.split_whitespace().nth(2) {
                        let ip = addr
                            .parse()
                            .map_err(|_| ProtoError::Malformed("connection address"))?;
                        match &mut current {
                            Some(_m) => { /* per-media c= treated as session-level here */ }
                            None => sd.connection_ip = Some(ip),
                        }
                        if sd.connection_ip.is_none() {
                            sd.connection_ip = Some(ip);
                        }
                    }
                }
                "t" => {}
                "m" => {
                    if let Some(m) = current.take() {
                        sd.media.push(m);
                    }
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() < 3 {
                        return Err(ProtoError::Malformed("m= line"));
                    }
                    let kind = match parts[0] {
                        "audio" => MediaKind::Audio,
                        "video" => MediaKind::Video,
                        _ => return Err(ProtoError::Unsupported("media kind")),
                    };
                    let port: u16 = parts[1]
                        .parse()
                        .map_err(|_| ProtoError::Malformed("m= port"))?;
                    let mut sec = MediaSection::new(kind, port);
                    sec.protocol = parts[2].to_string();
                    sec.payload_types = parts[3..].iter().filter_map(|p| p.parse().ok()).collect();
                    current = Some(sec);
                }
                "a" => {
                    let Some(m) = &mut current else {
                        continue; // session-level attribute: ignore
                    };
                    if let Some(v) = value.strip_prefix("candidate:") {
                        m.candidates.push(Candidate::parse(v)?);
                    } else if let Some(v) = value.strip_prefix("ssrc:") {
                        if let Some(ssrc) = v.split_whitespace().next() {
                            if let Ok(s) = ssrc.parse() {
                                if !m.ssrcs.contains(&s) {
                                    m.ssrcs.push(s);
                                }
                            }
                        }
                    } else if let Some(v) = value.strip_prefix("mid:") {
                        m.mid = Some(v.to_string());
                    } else if matches!(value, "sendrecv" | "sendonly" | "recvonly" | "inactive") {
                        m.direction = value.to_string();
                    } else {
                        m.other_attributes.push(value.to_string());
                    }
                }
                _ => {} // unknown line types ignored
            }
        }
        if let Some(m) = current.take() {
            sd.media.push(m);
        }
        if !saw_v {
            return Err(ProtoError::Malformed("missing v= line"));
        }
        Ok(sd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionDescription {
        let mut sd = SessionDescription::new("alice");
        sd.connection_ip = Some(Ipv4Addr::new(192, 168, 0, 5));
        let mut video = MediaSection::new(MediaKind::Video, 50000);
        video.mid = Some("0".into());
        video.ssrcs = vec![0xDEAD];
        video
            .candidates
            .push(Candidate::host(Ipv4Addr::new(192, 168, 0, 5), 50000));
        let mut audio = MediaSection::new(MediaKind::Audio, 50002);
        audio.mid = Some("1".into());
        audio.ssrcs = vec![0xBEEF];
        audio
            .candidates
            .push(Candidate::host(Ipv4Addr::new(192, 168, 0, 5), 50002));
        sd.media = vec![video, audio];
        sd
    }

    #[test]
    fn round_trip() {
        let sd = sample();
        let text = sd.serialize();
        let parsed = SessionDescription::parse(&text).unwrap();
        assert_eq!(parsed.origin, "alice");
        assert_eq!(parsed.media.len(), 2);
        assert_eq!(parsed.media[0].kind, MediaKind::Video);
        assert_eq!(parsed.media[0].ssrcs, vec![0xDEAD]);
        assert_eq!(parsed.media[1].kind, MediaKind::Audio);
        assert_eq!(parsed.media[1].candidates[0].port, 50002);
        assert_eq!(parsed.connection_ip, Some(Ipv4Addr::new(192, 168, 0, 5)));
    }

    #[test]
    fn parses_foreign_attributes_losslessly() {
        let text = "v=0\r\no=bob 0 0 IN IP4 0.0.0.0\r\ns=-\r\nt=0 0\r\n\
                    m=video 4000 UDP/RTP/AVPF 96 97\r\n\
                    a=rtpmap:96 AV1/90000\r\na=fmtp:96 profile=0\r\na=sendonly\r\n";
        let sd = SessionDescription::parse(text).unwrap();
        assert_eq!(sd.media[0].payload_types, vec![96, 97]);
        assert_eq!(sd.media[0].direction, "sendonly");
        assert!(sd.media[0]
            .other_attributes
            .contains(&"rtpmap:96 AV1/90000".to_string()));
        let out = sd.serialize();
        assert!(out.contains("a=rtpmap:96 AV1/90000"));
        assert!(out.contains("a=sendonly"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(SessionDescription::parse("nonsense").is_err());
        assert!(SessionDescription::parse("v=1\r\n").is_err());
        assert!(SessionDescription::parse("o=alice\r\n").is_err()); // no v=
        let bad_candidate = "v=0\r\nm=video 1 X 96\r\na=candidate:garbage\r\n";
        assert!(SessionDescription::parse(bad_candidate).is_err());
    }

    #[test]
    fn candidate_parse_variants() {
        let c = Candidate::parse("1 1 udp 2130706431 10.0.0.1 5000 typ host").unwrap();
        assert_eq!(c.ip, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(c.port, 5000);
        assert_eq!(c.typ, "host");
        // srflx with trailing raddr/rport tokens still parses.
        let c = Candidate::parse("2 1 udp 1694498815 1.2.3.4 9999 typ srflx raddr 0.0.0.0 rport 0")
            .unwrap();
        assert_eq!(c.typ, "srflx");
    }
}
