//! AV1 dependency descriptor RTP extension (SVC layer labeling).
//!
//! Scallop adapts streams by dropping packets whose AV1 *template id* maps
//! to a temporal layer above the receiver's decode target (§5.4, Fig. 9).
//! Each RTP packet carries a dependency descriptor (DD) extension element;
//! key frames additionally carry the *template dependency structure* that
//! maps template ids to layers and decode targets. The data plane parses
//! only the 3-byte mandatory fields; extended descriptors are punted to
//! the switch agent (Table 1 counts 5 such packets in 10 minutes).
//!
//! ## Wire-format fidelity
//!
//! The mandatory fields follow the AV1 RTP spec exactly:
//! `start_of_frame(1) end_of_frame(1) template_id(6) frame_number(16)`.
//! The extended part (template structures) uses a **simplified but
//! self-consistent** bit layout (documented on
//! [`DependencyDescriptor::serialize`]): the real spec's chain/fdiff
//! machinery is not needed by any experiment, only the
//! template → (spatial, temporal, per-DT DTI) mapping is, and that is
//! carried faithfully.

use crate::bits::{BitReader, BitWriter};
use crate::error::ProtoError;

/// The RFC 8285 extension id this reproduction assigns to the AV1
/// dependency descriptor (negotiated via SDP `extmap` in real WebRTC).
pub const DD_EXTENSION_ID: u8 = 12;

/// Decode-target indication for one (template, decode target) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dti {
    /// Frame is not present in this decode target.
    NotPresent = 0,
    /// Frame is present but no later frame depends on it.
    Discardable = 1,
    /// Decoding can switch to this target at this frame.
    Switch = 2,
    /// Frame is required for this decode target.
    Required = 3,
}

impl Dti {
    fn from_bits(v: u64) -> Dti {
        match v & 0x3 {
            0 => Dti::NotPresent,
            1 => Dti::Discardable,
            2 => Dti::Switch,
            _ => Dti::Required,
        }
    }
}

/// Per-template layer info within a [`TemplateStructure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateInfo {
    /// Spatial layer id (0 for the paper's L1T3 profile).
    pub spatial_id: u8,
    /// Temporal layer id (0–2 for L1T3).
    pub temporal_id: u8,
    /// One DTI per decode target.
    pub dtis: Vec<Dti>,
}

/// The template dependency structure carried on key frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateStructure {
    /// Offset added to template ids in this structure epoch (lets the
    /// encoder rotate ids across key frames, which is why the SFU must
    /// re-analyze each key frame — §5.4).
    pub template_id_offset: u8,
    /// Number of decode targets (1–32).
    pub decode_target_count: u8,
    /// Template table, indexed by `template_id - template_id_offset`.
    pub templates: Vec<TemplateInfo>,
}

impl TemplateStructure {
    /// The canonical L1T3 structure the paper evaluates (Fig. 9): one
    /// spatial layer, three temporal layers, five templates.
    /// Templates 0,1 → T0 (7.5 fps), 2 → T1 (15 fps), 3,4 → T2 (30 fps).
    /// Decode targets: DT0 = 7.5 fps, DT1 = 15 fps, DT2 = 30 fps.
    pub fn l1t3() -> TemplateStructure {
        use Dti::*;
        let t = |temporal_id: u8, dtis: [Dti; 3]| TemplateInfo {
            spatial_id: 0,
            temporal_id,
            dtis: dtis.to_vec(),
        };
        TemplateStructure {
            template_id_offset: 0,
            decode_target_count: 3,
            templates: vec![
                // Key-frame template (T0): required everywhere, switchable.
                t(0, [Switch, Switch, Switch]),
                // Steady-state T0.
                t(0, [Required, Required, Required]),
                // T1: absent from DT0.
                t(1, [NotPresent, Required, Required]),
                // T2 (two phases): absent below DT2, discardable there.
                t(2, [NotPresent, NotPresent, Discardable]),
                t(2, [NotPresent, NotPresent, Discardable]),
            ],
        }
    }
}

/// An AV1 dependency descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyDescriptor {
    /// First packet of the frame.
    pub start_of_frame: bool,
    /// Last packet of the frame.
    pub end_of_frame: bool,
    /// Frame dependency template id (6 bits).
    pub template_id: u8,
    /// Frame number (16 bits, wrapping).
    pub frame_number: u16,
    /// Template dependency structure (key frames only).
    pub structure: Option<TemplateStructure>,
    /// Bitmask of currently active decode targets (bit i = DT i).
    pub active_decode_targets: Option<u32>,
}

impl DependencyDescriptor {
    /// A minimal (non-extended) descriptor.
    pub fn mandatory(
        start_of_frame: bool,
        end_of_frame: bool,
        template_id: u8,
        frame_number: u16,
    ) -> Self {
        DependencyDescriptor {
            start_of_frame,
            end_of_frame,
            template_id,
            frame_number,
            structure: None,
            active_decode_targets: None,
        }
    }

    /// True when the descriptor carries more than the mandatory fields —
    /// the packets Scallop's data plane punts to the switch agent.
    pub fn is_extended(&self) -> bool {
        self.structure.is_some() || self.active_decode_targets.is_some()
    }

    /// Serialize. Layout:
    ///
    /// * mandatory (3 bytes): `start(1) end(1) template_id(6) frame_no(16)`
    /// * if extended — flags byte: `structure_present(1) adt_present(1)
    ///   zero(6)`, then:
    ///   * structure: `template_id_offset(6) dt_cnt_minus_1(5)
    ///     template_cnt(6)`, then per template `spatial_id(2)
    ///     temporal_id(3)` followed by `dt_cnt` 2-bit DTIs;
    ///   * active decode targets: 32-bit mask.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_into(&mut out);
        out
    }

    /// Append the serialized descriptor to `out`. The mandatory fields,
    /// all that every packet but a key frame's first carries, are three
    /// plain byte writes.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.push(
            ((self.start_of_frame as u8) << 7)
                | ((self.end_of_frame as u8) << 6)
                | (self.template_id & 0x3F),
        );
        out.extend_from_slice(&self.frame_number.to_be_bytes());
        if !self.is_extended() {
            return;
        }
        let mut w = BitWriter::new();
        w.write_bool(self.structure.is_some());
        w.write_bool(self.active_decode_targets.is_some());
        w.write(0, 6);
        if let Some(s) = &self.structure {
            debug_assert!(!s.templates.is_empty() && s.templates.len() <= 63);
            debug_assert!(s.decode_target_count >= 1 && s.decode_target_count <= 32);
            w.write(s.template_id_offset as u64 & 0x3F, 6);
            w.write((s.decode_target_count - 1) as u64, 5);
            w.write(s.templates.len() as u64, 6);
            for t in &s.templates {
                w.write(t.spatial_id as u64 & 0x3, 2);
                w.write(t.temporal_id as u64 & 0x7, 3);
                debug_assert_eq!(t.dtis.len(), s.decode_target_count as usize);
                for d in &t.dtis {
                    w.write(*d as u64, 2);
                }
            }
        }
        if let Some(adt) = self.active_decode_targets {
            w.write(adt as u64, 32);
        }
        out.extend_from_slice(&w.finish());
    }

    /// Parse from an extension element's bytes.
    pub fn parse(buf: &[u8]) -> Result<DependencyDescriptor, ProtoError> {
        let mut r = BitReader::new(buf);
        let start_of_frame = r.read_bool()?;
        let end_of_frame = r.read_bool()?;
        let template_id = r.read(6)? as u8;
        let frame_number = r.read(16)? as u16;
        let mut dd = DependencyDescriptor {
            start_of_frame,
            end_of_frame,
            template_id,
            frame_number,
            structure: None,
            active_decode_targets: None,
        };
        if r.remaining() >= 8 {
            let structure_present = r.read_bool()?;
            let adt_present = r.read_bool()?;
            let _reserved = r.read(6)?;
            if structure_present {
                let template_id_offset = r.read(6)? as u8;
                let dt_cnt = r.read(5)? as u8 + 1;
                let template_cnt = r.read(6)? as usize;
                if template_cnt == 0 {
                    return Err(ProtoError::Malformed("empty template structure"));
                }
                let mut templates = Vec::with_capacity(template_cnt);
                for _ in 0..template_cnt {
                    let spatial_id = r.read(2)? as u8;
                    let temporal_id = r.read(3)? as u8;
                    let mut dtis = Vec::with_capacity(dt_cnt as usize);
                    for _ in 0..dt_cnt {
                        dtis.push(Dti::from_bits(r.read(2)?));
                    }
                    templates.push(TemplateInfo {
                        spatial_id,
                        temporal_id,
                        dtis,
                    });
                }
                dd.structure = Some(TemplateStructure {
                    template_id_offset,
                    decode_target_count: dt_cnt,
                    templates,
                });
            }
            if adt_present {
                dd.active_decode_targets = Some(r.read(32)? as u32);
            }
        }
        Ok(dd)
    }

    /// Parse only the 3-byte mandatory fields — the operation Scallop's
    /// switch parser performs at line rate (Appendix E). Also reports
    /// whether an extended part follows (those packets go to the agent).
    pub fn parse_mandatory(buf: &[u8]) -> Result<(bool, bool, u8, u16, bool), ProtoError> {
        if buf.len() < 3 {
            return Err(ProtoError::Truncated {
                needed: 3,
                got: buf.len(),
            });
        }
        let start = buf[0] & 0x80 != 0;
        let end = buf[0] & 0x40 != 0;
        let template_id = buf[0] & 0x3F;
        let frame_number = u16::from_be_bytes([buf[1], buf[2]]);
        Ok((start, end, template_id, frame_number, buf.len() > 3))
    }
}

/// The paper's L1T3 layer semantics (§5.4): which template id carries
/// which temporal layer.
pub mod l1t3 {
    /// Temporal layer of each of the five L1T3 templates
    /// (ids 0,1 → T0; 2 → T1; 3,4 → T2), per §5.4.
    pub const TEMPLATE_TEMPORAL: [u8; 5] = [0, 0, 1, 2, 2];

    /// Temporal layer of L1T3 template `template_id`, the one reading of
    /// [`TEMPLATE_TEMPORAL`]. An id outside the five templates counts as
    /// T2, the top layer, which every thinned receiver drops first.
    #[inline]
    pub fn temporal_of(template_id: u8) -> u8 {
        TEMPLATE_TEMPORAL
            .get(usize::from(template_id))
            .copied()
            .unwrap_or(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mandatory_round_trip() {
        let dd = DependencyDescriptor::mandatory(true, false, 3, 777);
        let bytes = dd.serialize();
        assert_eq!(bytes.len(), 3);
        let parsed = DependencyDescriptor::parse(&bytes).unwrap();
        assert_eq!(parsed, dd);
        let (s, e, tid, fno, ext) = DependencyDescriptor::parse_mandatory(&bytes).unwrap();
        assert!(s);
        assert!(!e);
        assert_eq!(tid, 3);
        assert_eq!(fno, 777);
        assert!(!ext);
    }

    #[test]
    fn extended_round_trip_with_structure() {
        let mut dd = DependencyDescriptor::mandatory(true, true, 0, 0);
        dd.structure = Some(TemplateStructure::l1t3());
        dd.active_decode_targets = Some(0b111);
        let bytes = dd.serialize();
        assert!(bytes.len() > 3);
        let parsed = DependencyDescriptor::parse(&bytes).unwrap();
        assert_eq!(parsed, dd);
        let (.., ext) = DependencyDescriptor::parse_mandatory(&bytes).unwrap();
        assert!(ext, "extended DD must be flagged for the agent");
    }

    #[test]
    fn l1t3_layer_mapping_matches_paper() {
        let s = TemplateStructure::l1t3();
        // §5.4: "Template ids 0 and 1 represent the base layer (7.5 fps),
        // id 2 the first enhancement layer (15 fps), and ids 3 and 4 the
        // second enhancement layer (30 fps)." The structure carried on key
        // frames and the switch's table agree.
        assert_eq!(s.templates.len(), l1t3::TEMPLATE_TEMPORAL.len());
        for (id, t) in s.templates.iter().enumerate() {
            assert_eq!(t.temporal_id, l1t3::temporal_of(id as u8), "template {id}");
        }
        // DT0 delivers only T0; DT1 up to T1; DT2 everything. "Dropping
        // frame ids 3 and 4 would reduce the frame rate from 30 fps to
        // 15 fps": templates 3,4 are not present in DT1.
        for (dt, top) in [(0, 0), (1, 1), (2, 2)] {
            for t in &s.templates {
                let present = !matches!(t.dtis[dt], Dti::NotPresent);
                assert_eq!(present, t.temporal_id <= top, "DT{dt} T{}", t.temporal_id);
            }
        }
    }

    #[test]
    fn adt_only_extension() {
        let mut dd = DependencyDescriptor::mandatory(false, true, 2, 100);
        dd.active_decode_targets = Some(0b011);
        let parsed = DependencyDescriptor::parse(&dd.serialize()).unwrap();
        assert_eq!(parsed.active_decode_targets, Some(0b011));
        assert!(parsed.structure.is_none());
    }

    #[test]
    fn truncated_rejected() {
        assert!(DependencyDescriptor::parse(&[0x80]).is_err());
        assert!(DependencyDescriptor::parse_mandatory(&[0x80, 0x01]).is_err());
    }

    #[test]
    fn l1t3_constants() {
        let layers: Vec<u8> = (0..5).map(l1t3::temporal_of).collect();
        assert_eq!(layers, [0, 0, 1, 2, 2]);
        // Ids outside the five templates are the top layer.
        assert_eq!(l1t3::temporal_of(5), 2);
        assert_eq!(l1t3::temporal_of(63), 2);
    }
}
