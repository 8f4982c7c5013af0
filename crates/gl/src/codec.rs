//! Binary trace-file codec.
//!
//! TEAPOT stores intercepted GL commands in trace files; the paper's
//! conclusions explicitly count "the cost in time and storage (for the
//! trace files)" among what MEGsim reduces. This module provides a
//! compact little-endian binary format for [`CommandStream`]s with two
//! wire versions behind one header:
//!
//! ```text
//! v1: magic "MGLT" | version=1 u16 | command count u64 | commands...
//! v2: magic "MGLT" | version=2 u16 | command count varint | commands...
//! command = opcode u8 | payload (opcode- and version-specific)
//! ```
//!
//! Version 1 is the frozen seed format (the golden corpus under
//! `tests/data/` pins its bytes). Version 2 decodes to bit-identical
//! commands but packs the count/ID/address-heavy fields as LEB128
//! varints, with zigzag deltas where the payloads are monotone in
//! practice (mesh indices within a mesh, mesh/texture base addresses
//! across uploads) and byte-swapped-varint matrix elements — see
//! `DESIGN.md` §2h for the field tables.
//!
//! Decoding is streaming-first: [`decode`] is a thin collector over
//! [`crate::stream::StreamDecoder`], which reads commands incrementally
//! from any [`std::io::Read`] source with O(command) peak memory and
//! reports the byte offset of any malformed field.

use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

use megsim_gfx::draw::BlendMode;
use megsim_gfx::shader::{ShaderKind, TextureFilter};

use crate::command::{Command, CommandStream};
use crate::stream::StreamDecoder;

/// The frozen v1 format version — the default [`encode`] output and the
/// version the golden corpus pins.
pub const FORMAT_VERSION: u16 = 1;

/// The varint v2 format version produced by [`encode_v2`].
pub const FORMAT_VERSION_V2: u16 = 2;

pub(crate) const MAGIC: &[u8; 4] = b"MGLT";

/// What went wrong while decoding a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The magic bytes are wrong — not a trace file.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u16),
    /// The input ended in the middle of a command.
    Truncated,
    /// An opcode, enum discriminant or field value is invalid.
    BadValue(&'static str),
    /// The underlying reader failed.
    Io(std::io::ErrorKind),
}

/// Error produced while decoding a trace file, with the byte offset at
/// which the malformed field starts — in a multi-gigabyte capture the
/// offset is what makes a corruption report actionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The failure class.
    pub kind: DecodeErrorKind,
    /// Byte offset (from the start of the trace) of the offending
    /// field; for truncation, the offset at which more bytes were
    /// needed.
    pub offset: u64,
}

impl DecodeError {
    pub(crate) const fn new(kind: DecodeErrorKind, offset: u64) -> Self {
        Self { kind, offset }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DecodeErrorKind::BadMagic => write!(f, "not a MGLT trace file"),
            DecodeErrorKind::BadVersion(v) => {
                write!(f, "unsupported trace version {v}")
            }
            DecodeErrorKind::Truncated => {
                write!(f, "trace file is truncated at byte {}", self.offset)
            }
            DecodeErrorKind::BadValue(what) => {
                write!(f, "invalid {what} in trace file at byte {}", self.offset)
            }
            DecodeErrorKind::Io(e) => {
                write!(f, "trace read failed at byte {}: {e:?}", self.offset)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends a LEB128 varint.
fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

/// Zigzag-maps a signed delta onto an unsigned varint payload.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a zigzag-encoded signed varint.
fn put_signed(out: &mut BytesMut, v: i64) {
    put_varint(out, zigzag(v));
}

/// Maps a changed matrix element onto its v2 wire integer: the XOR of
/// its bit pattern against the same element of the previously encoded
/// matrix, byte-swapped. The XOR zeroes shared sign/exponent/mantissa
/// prefixes (identical elements never reach the wire at all — the
/// change mask skips them); swapping moves the surviving low bytes
/// down so the varint drops the zero tail. Lossless for every bit
/// pattern, NaN payloads and -0.0 included.
fn matrix_delta_to_wire(bits: u32, prev: u32) -> u64 {
    u64::from((bits ^ prev).swap_bytes())
}

/// Inverse of [`matrix_delta_to_wire`]: recovers the element bit
/// pattern from its wire delta; `None` when the wire value exceeds u32.
pub(crate) fn matrix_delta_from_wire(v: u64, prev: u32) -> Option<u32> {
    u32::try_from(v).ok().map(|d| d.swap_bytes() ^ prev)
}

/// Serializes a stream in the frozen v1 format (the golden-corpus
/// bytes).
pub fn encode(stream: &CommandStream) -> Bytes {
    let mut out = BytesMut::with_capacity(64 + stream.commands.len() * 16);
    out.put_slice(MAGIC);
    out.put_u16_le(FORMAT_VERSION);
    out.put_u64_le(stream.commands.len() as u64);
    for cmd in &stream.commands {
        out.put_u8(cmd.opcode());
        match cmd {
            Command::BufferData { id, mesh } => {
                out.put_u32_le(id.0);
                out.put_u64_le(mesh.base_address);
                out.put_u32_le(mesh.vertices.len() as u32);
                for v in &mesh.vertices {
                    for f in [
                        v.position.x,
                        v.position.y,
                        v.position.z,
                        v.normal.x,
                        v.normal.y,
                        v.normal.z,
                        v.uv.x,
                        v.uv.y,
                    ] {
                        out.put_f32_le(f);
                    }
                }
                out.put_u32_le(mesh.indices.len() as u32);
                for &i in &mesh.indices {
                    out.put_u32_le(i);
                }
            }
            Command::TexImage(t) => {
                out.put_u32_le(t.id.0);
                out.put_u32_le(t.width);
                out.put_u32_le(t.height);
                out.put_u32_le(t.bytes_per_texel);
                out.put_u64_le(t.base_address);
            }
            Command::ProgramData(p) => {
                out.put_u32_le(p.id.0);
                out.put_u8(shader_kind_tag(p.kind));
                let name = p.name.as_bytes();
                out.put_u16_le(name.len() as u16);
                out.put_slice(name);
                out.put_u32_le(p.alu_instructions);
                out.put_u16_le(p.texture_samples.len() as u16);
                for f in &p.texture_samples {
                    out.put_u8(filter_tag(*f));
                }
            }
            Command::UseProgram { vertex, fragment } => {
                out.put_u32_le(vertex.0);
                out.put_u32_le(fragment.0);
            }
            Command::BindTexture(t) => match t {
                Some(id) => {
                    out.put_u8(1);
                    out.put_u32_le(id.0);
                }
                None => out.put_u8(0),
            },
            Command::UniformMatrix(m) => {
                for col in &m.cols {
                    for f in [col.x, col.y, col.z, col.w] {
                        out.put_f32_le(f);
                    }
                }
            }
            Command::Blend(b) => out.put_u8(blend_tag(*b)),
            Command::DepthTest(d) => out.put_u8(u8::from(*d)),
            Command::Draw(id) => out.put_u32_le(id.0),
            Command::SwapBuffers => {}
        }
    }
    out.freeze()
}

/// Serializes a stream in the varint v2 format.
///
/// Opcode bytes and vertex f32 payloads are identical to v1; counts,
/// IDs and addresses become LEB128 varints; mesh indices and
/// mesh/texture base addresses are zigzag deltas against the previous
/// value of the same kind, which keeps the common small-ascending
/// patterns at one byte per field; each matrix carries a 16-bit change
/// mask against the previously encoded matrix, and only the changed
/// elements follow as varints of their byte-swapped XOR deltas
/// (`matrix_delta_to_wire` — lossless, with the structural zeros and
/// repeated entries that dominate transforms costing nothing).
pub fn encode_v2(stream: &CommandStream) -> Bytes {
    let mut out = BytesMut::with_capacity(64 + stream.commands.len() * 8);
    out.put_slice(MAGIC);
    out.put_u16_le(FORMAT_VERSION_V2);
    put_varint(&mut out, stream.commands.len() as u64);
    // Delta state: base addresses of consecutive uploads of the same
    // resource kind are monotone in practice (the workloads lay
    // resources out in one address space), so deltas stay small.
    let mut last_mesh_addr: u64 = 0;
    let mut last_tex_addr: u64 = 0;
    // Consecutive transforms share most of their entries (structural
    // zeros, a common scale/projection), so XOR deltas against the
    // previous matrix are sparse; the change mask drops the identical
    // elements entirely.
    let mut last_matrix = [0u32; 16];
    for cmd in &stream.commands {
        out.put_u8(cmd.opcode());
        match cmd {
            Command::BufferData { id, mesh } => {
                put_varint(&mut out, u64::from(id.0));
                put_signed(
                    &mut out,
                    mesh.base_address.wrapping_sub(last_mesh_addr) as i64,
                );
                last_mesh_addr = mesh.base_address;
                put_varint(&mut out, mesh.vertices.len() as u64);
                for v in &mesh.vertices {
                    for f in [
                        v.position.x,
                        v.position.y,
                        v.position.z,
                        v.normal.x,
                        v.normal.y,
                        v.normal.z,
                        v.uv.x,
                        v.uv.y,
                    ] {
                        out.put_f32_le(f);
                    }
                }
                put_varint(&mut out, mesh.indices.len() as u64);
                let mut prev: u32 = 0;
                for &i in &mesh.indices {
                    put_signed(&mut out, i64::from(i) - i64::from(prev));
                    prev = i;
                }
            }
            Command::TexImage(t) => {
                put_varint(&mut out, u64::from(t.id.0));
                put_varint(&mut out, u64::from(t.width));
                put_varint(&mut out, u64::from(t.height));
                put_varint(&mut out, u64::from(t.bytes_per_texel));
                put_signed(&mut out, t.base_address.wrapping_sub(last_tex_addr) as i64);
                last_tex_addr = t.base_address;
            }
            Command::ProgramData(p) => {
                put_varint(&mut out, u64::from(p.id.0));
                out.put_u8(shader_kind_tag(p.kind));
                let name = p.name.as_bytes();
                put_varint(&mut out, name.len() as u64);
                out.put_slice(name);
                put_varint(&mut out, u64::from(p.alu_instructions));
                put_varint(&mut out, p.texture_samples.len() as u64);
                for f in &p.texture_samples {
                    out.put_u8(filter_tag(*f));
                }
            }
            Command::UseProgram { vertex, fragment } => {
                put_varint(&mut out, u64::from(vertex.0));
                put_varint(&mut out, u64::from(fragment.0));
            }
            Command::BindTexture(t) => match t {
                Some(id) => {
                    out.put_u8(1);
                    put_varint(&mut out, u64::from(id.0));
                }
                None => out.put_u8(0),
            },
            Command::UniformMatrix(m) => {
                let mut bits = [0u32; 16];
                for (c, col) in m.cols.iter().enumerate() {
                    for (r, f) in [col.x, col.y, col.z, col.w].into_iter().enumerate() {
                        bits[c * 4 + r] = f.to_bits();
                    }
                }
                let mut mask = 0u16;
                for (i, &b) in bits.iter().enumerate() {
                    if b != last_matrix[i] {
                        mask |= 1 << i;
                    }
                }
                out.put_u16_le(mask);
                for (i, &b) in bits.iter().enumerate() {
                    if b != last_matrix[i] {
                        put_varint(&mut out, matrix_delta_to_wire(b, last_matrix[i]));
                        last_matrix[i] = b;
                    }
                }
            }
            Command::Blend(b) => out.put_u8(blend_tag(*b)),
            Command::DepthTest(d) => out.put_u8(u8::from(*d)),
            Command::Draw(id) => put_varint(&mut out, u64::from(id.0)),
            Command::SwapBuffers => {}
        }
    }
    out.freeze()
}

/// Serializes a stream in the given wire version (1 or 2); returns
/// `None` for unknown versions.
pub fn encode_with_version(stream: &CommandStream, version: u16) -> Option<Bytes> {
    match version {
        FORMAT_VERSION => Some(encode(stream)),
        FORMAT_VERSION_V2 => Some(encode_v2(stream)),
        _ => None,
    }
}

const fn shader_kind_tag(kind: ShaderKind) -> u8 {
    match kind {
        ShaderKind::Vertex => 0,
        ShaderKind::Fragment => 1,
    }
}

const fn filter_tag(filter: TextureFilter) -> u8 {
    match filter {
        TextureFilter::Nearest => 0,
        TextureFilter::Linear => 1,
        TextureFilter::Bilinear => 2,
        TextureFilter::Trilinear => 3,
    }
}

const fn blend_tag(blend: BlendMode) -> u8 {
    match blend {
        BlendMode::Opaque => 0,
        BlendMode::AlphaBlend => 1,
        BlendMode::Additive => 2,
    }
}

/// Deserializes a stream from bytes, accepting both wire versions.
///
/// This is the materializing entry point; for O(frame) memory over
/// arbitrarily long traces use [`StreamDecoder`] /
/// [`crate::stream::FrameIter`] directly.
///
/// # Errors
///
/// Returns a [`DecodeError`] (with the byte offset of the offending
/// field) on malformed input; never panics on arbitrary bytes.
pub fn decode(data: &[u8]) -> Result<CommandStream, DecodeError> {
    let mut decoder = StreamDecoder::new(data)?;
    let mut commands = Vec::with_capacity((decoder.remaining() as usize).min(1 << 20));
    for cmd in &mut decoder {
        commands.push(cmd?);
    }
    Ok(CommandStream { commands })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record_sequence;
    use megsim_gfx::draw::{DrawCall, Frame};
    use megsim_gfx::geometry::{Mesh, Vertex};
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::{ShaderId, ShaderProgram, TextureFilter};
    use megsim_gfx::texture::TextureDesc;
    use std::sync::Arc;

    fn sample_stream() -> CommandStream {
        let mut shaders = megsim_gfx::shader::ShaderTable::new();
        shaders.add(ShaderProgram::vertex(0, "vs", 9));
        shaders.add(ShaderProgram::fragment(
            0,
            "fs",
            4,
            vec![TextureFilter::Trilinear],
        ));
        let mesh = Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.3, -0.3, 0.0)),
                Vertex::at(Vec3::new(0.3, -0.3, 0.0)),
                Vertex::at(Vec3::new(0.0, 0.3, 0.0)),
            ],
            vec![0, 1, 2],
            0x77,
        ));
        let mut frame = Frame::new();
        frame.draws.push(DrawCall {
            mesh,
            transform: Mat4::rotation_y(0.3),
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: Some(TextureDesc::new(2, 128, 64, 4, 0xFEED)),
            blend: BlendMode::Additive,
            depth_test: true,
        });
        record_sequence(&shaders, &[frame])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let stream = sample_stream();
        let bytes = encode(&stream);
        let back = decode(&bytes).expect("roundtrip");
        assert_eq!(stream, back);
    }

    #[test]
    fn encode_v2_decode_roundtrip() {
        let stream = sample_stream();
        let bytes = encode_v2(&stream);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION_V2);
        let back = decode(&bytes).expect("v2 roundtrip");
        assert_eq!(stream, back);
    }

    #[test]
    fn v2_is_smaller_than_v1() {
        let stream = sample_stream();
        assert!(encode_v2(&stream).len() < encode(&stream).len());
    }

    #[test]
    fn encode_with_version_dispatches() {
        let stream = sample_stream();
        assert_eq!(
            encode_with_version(&stream, 1).expect("v1").as_ref(),
            encode(&stream).as_ref()
        );
        assert_eq!(
            encode_with_version(&stream, 2).expect("v2").as_ref(),
            encode_v2(&stream).as_ref()
        );
        assert!(encode_with_version(&stream, 3).is_none());
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 300, -300, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut out = BytesMut::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            put_varint(&mut out, v);
        }
        assert_eq!(out.len(), 1 + 1 + 1 + 2 + 2 + 3 + 10);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"NOPE\x01\x00").unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMagic);
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&sample_stream()).to_vec();
        bytes[4] = 0xFF;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err.kind, DecodeErrorKind::BadVersion(_)));
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        for bytes in [encode(&sample_stream()), encode_v2(&sample_stream())] {
            // Every strict prefix must fail cleanly, never panic, and
            // the reported offset must lie within the prefix.
            for len in 0..bytes.len() {
                let err = decode(&bytes[..len]).expect_err("prefix decoded");
                assert!(
                    err.offset <= len as u64,
                    "offset {} beyond prefix {len}",
                    err.offset
                );
            }
        }
    }

    #[test]
    fn rejects_corrupt_opcode() {
        let mut bytes = encode(&sample_stream()).to_vec();
        // First opcode byte follows the 14-byte header.
        bytes[14] = 0xEE;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadValue("opcode"));
        assert_eq!(err.offset, 14);
    }

    #[test]
    fn truncation_reports_the_cut_offset() {
        let bytes = encode(&sample_stream());
        let cut = bytes.len() - 3;
        let err = decode(&bytes[..cut]).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::Truncated);
        // The failing field starts at or before the cut.
        assert!(err.offset <= cut as u64);
    }

    #[test]
    fn trace_is_compact_relative_to_frame_dump() {
        // 50 frames sharing one mesh: the trace stores the mesh once.
        let mut shaders = megsim_gfx::shader::ShaderTable::new();
        shaders.add(ShaderProgram::vertex(0, "v", 3));
        shaders.add(ShaderProgram::fragment(0, "f", 3, vec![]));
        let mesh = Arc::new(Mesh::new(
            vec![Vertex::at(Vec3::ZERO); 300],
            (0..300u32).collect(),
            0,
        ));
        let frames: Vec<Frame> = (0..50)
            .map(|i| {
                let mut f = Frame::new();
                f.draws.push(DrawCall {
                    mesh: Arc::clone(&mesh),
                    transform: Mat4::rotation_y(i as f32 * 0.1),
                    vertex_shader: ShaderId(0),
                    fragment_shader: ShaderId(0),
                    texture: None,
                    blend: BlendMode::Opaque,
                    depth_test: true,
                });
                f
            })
            .collect();
        let stream = record_sequence(&shaders, &frames);
        let encoded = encode(&stream);
        let mesh_bytes = 300 * 32 + 300 * 4;
        // One mesh upload (~10.9 KB) + 50 × (matrix + draw + swap).
        assert!(encoded.len() < mesh_bytes + 50 * 80 + 256);
        // v2 shrinks the index section (4 bytes -> 1-byte deltas).
        let v2 = encode_v2(&stream);
        assert!(v2.len() + 600 < encoded.len());
    }
}
