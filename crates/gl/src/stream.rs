//! Streaming trace ingestion: incremental decode from any [`Read`]
//! source with O(command) peak memory.
//!
//! The v1 pipeline decoded an entire `MGLT` capture into one in-memory
//! `CommandStream` before a single frame replayed — double-buffering
//! the trace (file bytes + command vector) and capping replayable trace
//! length by RAM. [`StreamDecoder`] instead pulls one command at a time
//! off the reader, and [`FrameIter`] layers the GL state machine on top
//! to yield whole [`Frame`]s, so replay memory is bounded by the
//! resource tables (meshes/textures uploaded so far — state any GL
//! replay must keep) plus a single in-flight frame, independent of
//! trace length.
//!
//! Both wire versions decode through the same field readers; the
//! decoder dispatches on the header version, so v1 golden bytes and
//! varint v2 traces stream through identical code paths.

use std::io::Read;

use megsim_gfx::draw::BlendMode;
use megsim_gfx::draw::Frame;
use megsim_gfx::geometry::{Mesh, Vertex};
use megsim_gfx::math::{Mat4, Vec2, Vec3, Vec4};
use megsim_gfx::shader::{ShaderId, ShaderKind, ShaderProgram, ShaderTable, TextureFilter};
use megsim_gfx::texture::{TextureDesc, TextureId};

use crate::codec::{
    matrix_delta_from_wire, unzigzag, DecodeError, DecodeErrorKind, FORMAT_VERSION,
    FORMAT_VERSION_V2, MAGIC,
};
use crate::command::{BufferId, Command};
use crate::player::{PlayError, StreamPlayer};

/// Largest length-prefixed allocation the decoder will make before
/// seeing the payload bytes. Counts above this are still decoded — the
/// vector just grows as bytes actually arrive, so a corrupt count hits
/// `Truncated` instead of an absurd up-front allocation.
const MAX_PREALLOC: usize = 1 << 16;

/// Offset-tracking field reader over any byte source.
struct TraceReader<R: Read> {
    inner: R,
    /// Bytes consumed so far — the offset attached to decode errors.
    offset: u64,
}

impl<R: Read> TraceReader<R> {
    fn new(inner: R) -> Self {
        Self { inner, offset: 0 }
    }

    /// Fills `buf` exactly, mapping EOF to [`DecodeErrorKind::Truncated`]
    /// at the offset where the field started.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), DecodeError> {
        let start = self.offset;
        let mut read = 0;
        while read < buf.len() {
            match self.inner.read(&mut buf[read..]) {
                Ok(0) => {
                    return Err(DecodeError::new(
                        DecodeErrorKind::Truncated,
                        start + read as u64,
                    ))
                }
                Ok(n) => {
                    read += n;
                    self.offset += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(DecodeError::new(
                        DecodeErrorKind::Io(e.kind()),
                        start + read as u64,
                    ))
                }
            }
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16_le(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f32_le(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads a LEB128 varint (at most 10 bytes for u64).
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let start = self.offset;
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                // Reject non-canonical overlong encodings of the top
                // byte so every value has exactly one wire form.
                if shift == 63 && byte > 1 {
                    return Err(DecodeError::new(DecodeErrorKind::BadValue("varint"), start));
                }
                return Ok(value);
            }
        }
        Err(DecodeError::new(DecodeErrorKind::BadValue("varint"), start))
    }

    /// Reads a zigzag-encoded signed varint.
    fn signed(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.varint()?))
    }
}

/// Incremental `MGLT` decoder: yields [`Command`]s one at a time from
/// any [`Read`] source, for both wire versions, with O(command) peak
/// memory and byte-offset error reporting.
///
/// Implements `Iterator<Item = Result<Command, DecodeError>>`; after the
/// declared command count is exhausted (or the first error) it yields
/// `None` and leaves any trailing reader bytes untouched.
pub struct StreamDecoder<R: Read> {
    reader: TraceReader<R>,
    version: u16,
    remaining: u64,
    failed: bool,
    /// v2 delta state: previous mesh / texture base address.
    last_mesh_addr: u64,
    last_tex_addr: u64,
    /// v2 delta state: bit patterns of the previously decoded matrix.
    last_matrix: [u32; 16],
}

impl<R: Read> StreamDecoder<R> {
    /// Reads and validates the trace header.
    ///
    /// # Errors
    ///
    /// Fails on wrong magic, an unsupported version, or a truncated
    /// header.
    pub fn new(reader: R) -> Result<Self, DecodeError> {
        let mut reader = TraceReader::new(reader);
        let magic: [u8; 4] = reader.array()?;
        if &magic != MAGIC {
            return Err(DecodeError::new(DecodeErrorKind::BadMagic, 0));
        }
        let version = reader.u16_le()?;
        let remaining = match version {
            FORMAT_VERSION => reader.u64_le()?,
            FORMAT_VERSION_V2 => reader.varint()?,
            other => return Err(DecodeError::new(DecodeErrorKind::BadVersion(other), 4)),
        };
        Ok(Self {
            reader,
            version,
            remaining,
            failed: false,
            last_mesh_addr: 0,
            last_tex_addr: 0,
            last_matrix: [0; 16],
        })
    }

    /// The wire version declared in the header (1 or 2).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Commands not yet decoded (from the header count).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Bytes consumed from the reader so far.
    pub fn byte_offset(&self) -> u64 {
        self.reader.offset
    }

    /// Whether the header declared the v2 varint format.
    fn v2(&self) -> bool {
        self.version == FORMAT_VERSION_V2
    }

    /// Version-dispatched count/ID field (u32 LE in v1, varint in v2),
    /// validated to fit u32 like the v1 wire type.
    fn id(&mut self) -> Result<u32, DecodeError> {
        if self.v2() {
            let start = self.reader.offset;
            u32::try_from(self.reader.varint()?)
                .map_err(|_| DecodeError::new(DecodeErrorKind::BadValue("id"), start))
        } else {
            self.reader.u32_le()
        }
    }

    /// Version-dispatched matrix payload: 16 raw f32 LE in v1; in v2 a
    /// 16-bit change mask followed by byte-swapped XOR deltas against
    /// the previous matrix, one per set bit — see
    /// `codec::matrix_delta_to_wire`.
    fn decode_matrix(&mut self) -> Result<Mat4, DecodeError> {
        let mut bits = self.last_matrix;
        if self.v2() {
            let mask = self.reader.u16_le()?;
            for (i, b) in bits.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    let at = self.reader.offset;
                    *b = matrix_delta_from_wire(self.reader.varint()?, *b).ok_or(
                        DecodeError::new(DecodeErrorKind::BadValue("matrix delta"), at),
                    )?;
                }
            }
            self.last_matrix = bits;
        } else {
            for b in &mut bits {
                *b = self.reader.f32_le()?.to_bits();
            }
        }
        let mut cols = [Vec4::default(); 4];
        for (c, col) in cols.iter_mut().enumerate() {
            *col = Vec4::new(
                f32::from_bits(bits[c * 4]),
                f32::from_bits(bits[c * 4 + 1]),
                f32::from_bits(bits[c * 4 + 2]),
                f32::from_bits(bits[c * 4 + 3]),
            );
        }
        Ok(Mat4 { cols })
    }

    /// Version-dispatched element count, validated to fit `usize`/u32.
    fn count(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let start = self.reader.offset;
        let raw = if self.v2() {
            self.reader.varint()?
        } else {
            u64::from(self.reader.u32_le()?)
        };
        usize::try_from(raw)
            .ok()
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or(DecodeError::new(DecodeErrorKind::BadValue(what), start))
    }

    /// Decodes the next command, or `None` past the declared count.
    #[allow(clippy::should_implement_trait)]
    pub fn next_command(&mut self) -> Option<Result<Command, DecodeError>> {
        if self.remaining == 0 || self.failed {
            return None;
        }
        self.remaining -= 1;
        let result = self.decode_command();
        if result.is_err() {
            self.failed = true;
        }
        Some(result)
    }

    fn decode_command(&mut self) -> Result<Command, DecodeError> {
        let opcode_at = self.reader.offset;
        let opcode = self.reader.u8()?;
        match opcode {
            0 => self.decode_buffer_data(),
            1 => self.decode_tex_image(),
            2 => self.decode_program_data(),
            3 => Ok(Command::UseProgram {
                vertex: ShaderId(self.id()?),
                fragment: ShaderId(self.id()?),
            }),
            4 => {
                let tag_at = self.reader.offset;
                match self.reader.u8()? {
                    0 => Ok(Command::BindTexture(None)),
                    1 => Ok(Command::BindTexture(Some(TextureId(self.id()?)))),
                    _ => Err(DecodeError::new(
                        DecodeErrorKind::BadValue("texture binding"),
                        tag_at,
                    )),
                }
            }
            5 => Ok(Command::UniformMatrix(self.decode_matrix()?)),
            6 => {
                let tag_at = self.reader.offset;
                match self.reader.u8()? {
                    0 => Ok(Command::Blend(BlendMode::Opaque)),
                    1 => Ok(Command::Blend(BlendMode::AlphaBlend)),
                    2 => Ok(Command::Blend(BlendMode::Additive)),
                    _ => Err(DecodeError::new(
                        DecodeErrorKind::BadValue("blend mode"),
                        tag_at,
                    )),
                }
            }
            7 => {
                let tag_at = self.reader.offset;
                match self.reader.u8()? {
                    0 => Ok(Command::DepthTest(false)),
                    1 => Ok(Command::DepthTest(true)),
                    _ => Err(DecodeError::new(
                        DecodeErrorKind::BadValue("depth flag"),
                        tag_at,
                    )),
                }
            }
            8 => Ok(Command::Draw(BufferId(self.id()?))),
            9 => Ok(Command::SwapBuffers),
            _ => Err(DecodeError::new(
                DecodeErrorKind::BadValue("opcode"),
                opcode_at,
            )),
        }
    }

    fn decode_buffer_data(&mut self) -> Result<Command, DecodeError> {
        let id = BufferId(self.id()?);
        let base_address = if self.v2() {
            let delta = self.reader.signed()?;
            let addr = self.last_mesh_addr.wrapping_add(delta as u64);
            self.last_mesh_addr = addr;
            addr
        } else {
            self.reader.u64_le()?
        };
        let n_verts = self.count("vertex count")?;
        let mut vertices = Vec::with_capacity(n_verts.min(MAX_PREALLOC));
        for _ in 0..n_verts {
            let mut f = [0.0f32; 8];
            for slot in &mut f {
                *slot = self.reader.f32_le()?;
            }
            vertices.push(Vertex {
                position: Vec3::new(f[0], f[1], f[2]),
                normal: Vec3::new(f[3], f[4], f[5]),
                uv: Vec2::new(f[6], f[7]),
            });
        }
        let count_at = self.reader.offset;
        let n_idx = self.count("index count")?;
        let mut indices = Vec::with_capacity(n_idx.min(MAX_PREALLOC));
        if self.v2() {
            let mut prev: i64 = 0;
            for _ in 0..n_idx {
                let at = self.reader.offset;
                let value = prev + self.reader.signed()?;
                prev = value;
                indices.push(u32::try_from(value).map_err(|_| {
                    DecodeError::new(DecodeErrorKind::BadValue("mesh indices"), at)
                })?);
            }
        } else {
            for _ in 0..n_idx {
                indices.push(self.reader.u32_le()?);
            }
        }
        // `% 3 != 0` rather than `is_multiple_of` (MSRV 1.75).
        #[allow(clippy::manual_is_multiple_of)]
        if n_idx % 3 != 0 || indices.iter().any(|&i| i as usize >= n_verts) {
            return Err(DecodeError::new(
                DecodeErrorKind::BadValue("mesh indices"),
                count_at,
            ));
        }
        Ok(Command::BufferData {
            id,
            mesh: Mesh::new(vertices, indices, base_address),
        })
    }

    fn decode_tex_image(&mut self) -> Result<Command, DecodeError> {
        let start = self.reader.offset;
        let id = self.id()?;
        let (width, height, bpt) = if self.v2() {
            let w = self.count("texture geometry")? as u32;
            let h = self.count("texture geometry")? as u32;
            let b = self.count("texture geometry")? as u32;
            (w, h, b)
        } else {
            (
                self.reader.u32_le()?,
                self.reader.u32_le()?,
                self.reader.u32_le()?,
            )
        };
        let base = if self.v2() {
            let delta = self.reader.signed()?;
            let addr = self.last_tex_addr.wrapping_add(delta as u64);
            self.last_tex_addr = addr;
            addr
        } else {
            self.reader.u64_le()?
        };
        if !width.is_power_of_two() || !height.is_power_of_two() || bpt == 0 {
            return Err(DecodeError::new(
                DecodeErrorKind::BadValue("texture geometry"),
                start,
            ));
        }
        Ok(Command::TexImage(TextureDesc::new(
            id, width, height, bpt, base,
        )))
    }

    fn decode_program_data(&mut self) -> Result<Command, DecodeError> {
        let id = self.id()?;
        let kind_at = self.reader.offset;
        let kind = match self.reader.u8()? {
            0 => ShaderKind::Vertex,
            1 => ShaderKind::Fragment,
            _ => {
                return Err(DecodeError::new(
                    DecodeErrorKind::BadValue("shader kind"),
                    kind_at,
                ))
            }
        };
        let name_at = self.reader.offset;
        let name_len = if self.v2() {
            let len = self.reader.varint()?;
            usize::try_from(len)
                .ok()
                .filter(|&n| n <= u16::MAX as usize)
                .ok_or(DecodeError::new(
                    DecodeErrorKind::BadValue("shader name"),
                    name_at,
                ))?
        } else {
            self.reader.u16_le()? as usize
        };
        let mut name = vec![0u8; name_len];
        self.reader.fill(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| DecodeError::new(DecodeErrorKind::BadValue("shader name"), name_at))?;
        let alu = if self.v2() {
            let at = self.reader.offset;
            u32::try_from(self.reader.varint()?)
                .map_err(|_| DecodeError::new(DecodeErrorKind::BadValue("alu count"), at))?
        } else {
            self.reader.u32_le()?
        };
        let n_samples = if self.v2() {
            let at = self.reader.offset;
            usize::try_from(self.reader.varint()?)
                .ok()
                .filter(|&n| n <= u16::MAX as usize)
                .ok_or(DecodeError::new(
                    DecodeErrorKind::BadValue("sample count"),
                    at,
                ))?
        } else {
            self.reader.u16_le()? as usize
        };
        let mut samples = Vec::with_capacity(n_samples.min(MAX_PREALLOC));
        for _ in 0..n_samples {
            let tag_at = self.reader.offset;
            samples.push(match self.reader.u8()? {
                0 => TextureFilter::Nearest,
                1 => TextureFilter::Linear,
                2 => TextureFilter::Bilinear,
                3 => TextureFilter::Trilinear,
                _ => {
                    return Err(DecodeError::new(
                        DecodeErrorKind::BadValue("texture filter"),
                        tag_at,
                    ))
                }
            });
        }
        Ok(Command::ProgramData(ShaderProgram {
            id: ShaderId(id),
            kind,
            name,
            alu_instructions: alu,
            texture_samples: samples,
        }))
    }
}

impl<R: Read> Iterator for StreamDecoder<R> {
    type Item = Result<Command, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_command()
    }
}

/// Error produced while streaming frames off a trace: either the bytes
/// were malformed or the command sequence was semantically invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The wire bytes could not be decoded.
    Decode(DecodeError),
    /// The decoded commands violated the GL state machine.
    Play(PlayError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Decode(e) => e.fmt(f),
            TraceError::Play(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> Self {
        TraceError::Decode(e)
    }
}

impl From<PlayError> for TraceError {
    fn from(e: PlayError) -> Self {
        TraceError::Play(e)
    }
}

/// Frame-granular streaming replay: decodes commands incrementally and
/// yields whole [`Frame`]s, with peak memory bounded by the resource
/// tables plus one frame — never the full trace.
///
/// The constructor eagerly consumes the recorder's program prelude, so
/// [`FrameIter::shaders`] is complete before the first frame is pulled
/// (programs uploaded mid-stream — which [`crate::record_sequence`]
/// never emits — still replay correctly and appear in the table as they
/// are decoded).
pub struct FrameIter<R: Read> {
    decoder: StreamDecoder<R>,
    player: StreamPlayer,
    /// First non-prelude command, decoded while scanning the prelude.
    pending: Option<Command>,
    done: bool,
}

impl<R: Read> FrameIter<R> {
    /// Opens a trace for streaming replay, reading the header and the
    /// program prelude.
    ///
    /// # Errors
    ///
    /// Fails on a malformed header or an invalid prelude.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut decoder = StreamDecoder::new(reader)?;
        let mut player = StreamPlayer::new();
        let mut pending = None;
        for cmd in &mut decoder {
            let cmd = cmd?;
            if matches!(cmd, Command::ProgramData(_)) {
                // Prelude program uploads never emit a frame.
                player.feed(cmd).map_err(TraceError::Play)?;
            } else {
                pending = Some(cmd);
                break;
            }
        }
        Ok(Self {
            decoder,
            player,
            pending,
            done: false,
        })
    }

    /// The shader library uploaded in the trace prelude.
    pub fn shaders(&self) -> &ShaderTable {
        self.player.shaders()
    }

    /// The wire version of the underlying trace (1 or 2).
    pub fn version(&self) -> u16 {
        self.decoder.version()
    }

    /// Bytes consumed from the reader so far.
    pub fn byte_offset(&self) -> u64 {
        self.decoder.byte_offset()
    }
}

impl<R: Read> Iterator for FrameIter<R> {
    type Item = Result<Frame, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(cmd) = self.pending.take() {
            match self.player.feed(cmd) {
                Ok(Some(frame)) => return Some(Ok(frame)),
                Ok(None) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            }
        }
        loop {
            match self.decoder.next_command() {
                Some(Ok(cmd)) => match self.player.feed(cmd) {
                    Ok(Some(frame)) => return Some(Ok(frame)),
                    Ok(None) => {}
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e.into()));
                    }
                },
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                None => {
                    // Commands after the last SwapBuffers belong to no
                    // frame — exactly like the materialized replay,
                    // which only emits frames on SwapBuffers.
                    self.done = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, encode_v2};
    use crate::player::play;
    use crate::recorder::record_sequence;
    use megsim_gfx::draw::DrawCall;

    fn sample_stream() -> crate::command::CommandStream {
        let mut shaders = ShaderTable::new();
        shaders.add(ShaderProgram::vertex(0, "vs", 7));
        shaders.add(ShaderProgram::fragment(
            0,
            "fs",
            3,
            vec![TextureFilter::Bilinear],
        ));
        let mesh = std::sync::Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.5, -0.5, 0.0)),
                Vertex::at(Vec3::new(0.0, 0.5, 0.0)),
            ],
            vec![0, 1, 2],
            0x100,
        ));
        let frames: Vec<Frame> = (0..3)
            .map(|i| {
                let mut f = Frame::new();
                f.draws.push(DrawCall {
                    mesh: std::sync::Arc::clone(&mesh),
                    transform: Mat4::rotation_y(i as f32 * 0.2),
                    vertex_shader: ShaderId(0),
                    fragment_shader: ShaderId(0),
                    texture: Some(TextureDesc::new(1, 64, 64, 4, 0x2000 + i as u64 * 0x100)),
                    blend: BlendMode::Opaque,
                    depth_test: true,
                });
                f
            })
            .collect();
        record_sequence(&shaders, &frames)
    }

    #[test]
    fn stream_decoder_matches_materialized_decode() {
        let stream = sample_stream();
        for bytes in [encode(&stream), encode_v2(&stream)] {
            let commands: Vec<Command> = StreamDecoder::new(bytes.as_ref())
                .expect("header")
                .map(|c| c.expect("command"))
                .collect();
            assert_eq!(commands, stream.commands);
        }
    }

    #[test]
    fn frame_iter_matches_materialized_play() {
        let stream = sample_stream();
        let replay = play(&stream).expect("plays");
        for bytes in [encode(&stream), encode_v2(&stream)] {
            let mut iter = FrameIter::new(bytes.as_ref()).expect("header");
            assert_eq!(iter.shaders().vertex_count(), replay.shaders.vertex_count());
            assert_eq!(
                iter.shaders().fragment_count(),
                replay.shaders.fragment_count()
            );
            let frames: Vec<Frame> = (&mut iter).map(|f| f.expect("frame")).collect();
            assert_eq!(frames.len(), replay.frames.len());
            for (a, b) in frames.iter().zip(&replay.frames) {
                assert_eq!(a.draws.len(), b.draws.len());
                for (da, db) in a.draws.iter().zip(&b.draws) {
                    assert_eq!(*da.mesh, *db.mesh);
                    assert_eq!(da.transform, db.transform);
                    assert_eq!(da.texture, db.texture);
                }
            }
        }
    }

    #[test]
    fn frame_iter_surfaces_play_errors() {
        use crate::command::CommandStream;
        let mut s = CommandStream::new();
        s.commands
            .push(Command::ProgramData(ShaderProgram::vertex(0, "v", 1)));
        s.commands.push(Command::UseProgram {
            vertex: ShaderId(0),
            fragment: ShaderId(0),
        });
        s.commands.push(Command::Draw(BufferId(9)));
        let bytes = encode(&s);
        let mut iter = FrameIter::new(bytes.as_ref()).expect("header");
        let err = iter.next().expect("yields error").unwrap_err();
        assert_eq!(err, TraceError::Play(PlayError::UnknownBuffer(BufferId(9))));
        assert!(iter.next().is_none(), "iterator fuses after an error");
    }

    #[test]
    fn stream_decoder_reads_one_command_at_a_time() {
        // A reader that counts read calls and hands out at most 7 bytes
        // per call: the decoder must still produce every command.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(7);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let stream = sample_stream();
        let bytes = encode_v2(&stream);
        let commands: Vec<Command> = StreamDecoder::new(Dribble(&bytes))
            .expect("header")
            .map(|c| c.expect("command"))
            .collect();
        assert_eq!(commands, stream.commands);
    }

    #[test]
    fn byte_offset_tracks_consumption() {
        let stream = sample_stream();
        let bytes = encode(&stream);
        let mut dec = StreamDecoder::new(bytes.as_ref()).expect("header");
        assert_eq!(dec.byte_offset(), 14); // magic + version + count
        while dec.next_command().is_some() {}
        assert_eq!(dec.byte_offset(), bytes.len() as u64);
    }
}
