//! Replays a command stream into frames — the role of the GL state
//! machine inside the functional simulator that consumes TEAPOT traces.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use megsim_gfx::draw::{BlendMode, DrawCall, Frame};
use megsim_gfx::geometry::Mesh;
use megsim_gfx::math::Mat4;
use megsim_gfx::shader::{ShaderId, ShaderTable};
use megsim_gfx::texture::{TextureDesc, TextureId};

use crate::command::{BufferId, Command, CommandStream};

/// Error produced while replaying a malformed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlayError {
    /// A draw referenced a buffer that was never uploaded.
    UnknownBuffer(BufferId),
    /// A bind referenced a texture that was never uploaded.
    UnknownTexture(TextureId),
    /// A draw was issued before any UseProgram.
    NoProgramBound,
    /// Program IDs were not uploaded contiguously per kind.
    BadProgramUpload,
}

impl fmt::Display for PlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlayError::UnknownBuffer(id) => write!(f, "draw references unknown buffer {}", id.0),
            PlayError::UnknownTexture(id) => write!(f, "bind references unknown texture {}", id.0),
            PlayError::NoProgramBound => write!(f, "draw issued with no program bound"),
            PlayError::BadProgramUpload => write!(f, "program upload order is invalid"),
        }
    }
}

impl std::error::Error for PlayError {}

/// Result of a replay: the reconstructed shader library and frames.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Shader programs uploaded in the stream's prelude.
    pub shaders: ShaderTable,
    /// Reconstructed frames in order.
    pub frames: Vec<Frame>,
}

/// Incremental GL state machine: commands are fed one at a time and
/// whole frames come out on each [`Command::SwapBuffers`].
///
/// This is the replay engine behind both the materialized [`play`] and
/// the streaming [`crate::stream::FrameIter`] — one implementation, so
/// streamed and materialized replay are identical by construction. The
/// player retains only the resource tables (meshes, textures, shaders —
/// state any GL replay must keep, shared via [`Arc`] with the frames it
/// emits) plus the frame under construction, never the command history.
#[derive(Debug)]
pub struct StreamPlayer {
    shaders: ShaderTable,
    buffers: HashMap<BufferId, Arc<Mesh>>,
    textures: HashMap<TextureId, TextureDesc>,
    current: Frame,
    // GL default state.
    program: Option<(ShaderId, ShaderId)>,
    texture: Option<TextureId>,
    matrix: Mat4,
    blend: BlendMode,
    depth: bool,
}

impl Default for StreamPlayer {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamPlayer {
    /// A player in the GL default state with empty resource tables.
    pub(crate) fn new() -> Self {
        Self {
            shaders: ShaderTable::new(),
            buffers: HashMap::new(),
            textures: HashMap::new(),
            current: Frame::new(),
            program: None,
            texture: None,
            matrix: Mat4::IDENTITY,
            blend: BlendMode::Opaque,
            depth: false,
        }
    }

    /// The shader programs uploaded so far.
    pub(crate) fn shaders(&self) -> &ShaderTable {
        &self.shaders
    }

    /// Consumes the player, returning its shader library.
    fn into_shaders(self) -> ShaderTable {
        self.shaders
    }

    /// Processes one command; returns the completed frame when the
    /// command is a [`Command::SwapBuffers`].
    ///
    /// # Errors
    ///
    /// Returns a [`PlayError`] when the command references resources
    /// that were never uploaded or draws without a bound program.
    pub(crate) fn feed(&mut self, cmd: Command) -> Result<Option<Frame>, PlayError> {
        match cmd {
            Command::BufferData { id, mesh } => {
                self.buffers.insert(id, Arc::new(mesh));
            }
            Command::TexImage(desc) => {
                self.textures.insert(desc.id, desc);
            }
            Command::ProgramData(p) => {
                let expected = match p.kind {
                    megsim_gfx::shader::ShaderKind::Vertex => self.shaders.vertex_count(),
                    megsim_gfx::shader::ShaderKind::Fragment => self.shaders.fragment_count(),
                };
                if p.id.0 as usize != expected {
                    return Err(PlayError::BadProgramUpload);
                }
                self.shaders.add(p);
            }
            Command::UseProgram { vertex, fragment } => self.program = Some((vertex, fragment)),
            Command::BindTexture(t) => {
                if let Some(id) = t {
                    if !self.textures.contains_key(&id) {
                        return Err(PlayError::UnknownTexture(id));
                    }
                }
                self.texture = t;
            }
            Command::UniformMatrix(m) => self.matrix = m,
            Command::Blend(b) => self.blend = b,
            Command::DepthTest(d) => self.depth = d,
            Command::Draw(buffer) => {
                let mesh = self
                    .buffers
                    .get(&buffer)
                    .ok_or(PlayError::UnknownBuffer(buffer))?;
                let (vertex_shader, fragment_shader) =
                    self.program.ok_or(PlayError::NoProgramBound)?;
                self.current.draws.push(DrawCall {
                    mesh: Arc::clone(mesh),
                    transform: self.matrix,
                    vertex_shader,
                    fragment_shader,
                    texture: self.texture.map(|id| self.textures[&id]),
                    blend: self.blend,
                    depth_test: self.depth,
                });
            }
            Command::SwapBuffers => {
                return Ok(Some(std::mem::take(&mut self.current)));
            }
        }
        Ok(None)
    }
}

/// Replays a materialized stream.
///
/// # Errors
///
/// Returns a [`PlayError`] when the stream references resources it never
/// uploaded or draws without a bound program.
pub fn play(stream: &CommandStream) -> Result<Replay, PlayError> {
    let mut player = StreamPlayer::new();
    let mut frames = Vec::new();
    for cmd in &stream.commands {
        if let Some(frame) = player.feed(cmd.clone())? {
            frames.push(frame);
        }
    }
    Ok(Replay {
        shaders: player.into_shaders(),
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record_sequence;
    use megsim_gfx::geometry::Vertex;
    use megsim_gfx::math::Vec3;
    use megsim_gfx::shader::{ShaderProgram, TextureFilter};

    fn shader_table() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "v0", 8));
        t.add(ShaderProgram::vertex(1, "v1", 16));
        t.add(ShaderProgram::fragment(
            0,
            "f0",
            6,
            vec![TextureFilter::Bilinear],
        ));
        t
    }

    fn sample_frames() -> Vec<Frame> {
        let mesh = Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.4, -0.4, 0.0)),
                Vertex::at(Vec3::new(0.4, -0.4, 0.0)),
                Vertex::at(Vec3::new(0.0, 0.4, 0.0)),
            ],
            vec![0, 1, 2],
            0x80,
        ));
        (0..3)
            .map(|i| {
                let mut f = Frame::new();
                for j in 0..=i {
                    f.draws.push(DrawCall {
                        mesh: Arc::clone(&mesh),
                        transform: Mat4::translation(Vec3::new(j as f32 * 0.1, 0.0, 0.0)),
                        vertex_shader: ShaderId(j as u32 % 2),
                        fragment_shader: ShaderId(0),
                        texture: (j % 2 == 0).then(|| TextureDesc::new(0, 64, 64, 4, 0x1000)),
                        blend: if j % 2 == 0 {
                            BlendMode::Opaque
                        } else {
                            BlendMode::AlphaBlend
                        },
                        depth_test: true,
                    });
                }
                f
            })
            .collect()
    }

    fn assert_frames_equal(a: &[Frame], b: &[Frame]) {
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(b) {
            assert_eq!(fa.draws.len(), fb.draws.len());
            for (da, db) in fa.draws.iter().zip(&fb.draws) {
                assert_eq!(*da.mesh, *db.mesh);
                assert_eq!(da.transform, db.transform);
                assert_eq!(da.vertex_shader, db.vertex_shader);
                assert_eq!(da.fragment_shader, db.fragment_shader);
                assert_eq!(da.texture, db.texture);
                assert_eq!(da.blend, db.blend);
                assert_eq!(da.depth_test, db.depth_test);
            }
        }
    }

    #[test]
    fn record_play_roundtrip_preserves_frames() {
        let frames = sample_frames();
        let shaders = shader_table();
        let stream = record_sequence(&shaders, &frames);
        let replay = play(&stream).expect("valid stream");
        assert_eq!(replay.shaders.vertex_count(), 2);
        assert_eq!(replay.shaders.fragment_count(), 1);
        assert_frames_equal(&frames, &replay.frames);
    }

    #[test]
    fn draw_without_program_is_rejected() {
        let mut s = CommandStream::new();
        s.commands.push(Command::BufferData {
            id: BufferId(0),
            mesh: Mesh::new(vec![Vertex::at(Vec3::ZERO); 3], vec![0, 1, 2], 0),
        });
        s.commands.push(Command::Draw(BufferId(0)));
        assert_eq!(play(&s).unwrap_err(), PlayError::NoProgramBound);
    }

    #[test]
    fn unknown_buffer_is_rejected() {
        let mut s = CommandStream::new();
        s.commands
            .push(Command::ProgramData(ShaderProgram::vertex(0, "v", 1)));
        s.commands
            .push(Command::ProgramData(ShaderProgram::fragment(
                0,
                "f",
                1,
                vec![],
            )));
        s.commands.push(Command::UseProgram {
            vertex: ShaderId(0),
            fragment: ShaderId(0),
        });
        s.commands.push(Command::Draw(BufferId(7)));
        let err = play(&s).unwrap_err();
        assert_eq!(err, PlayError::UnknownBuffer(BufferId(7)));
    }

    #[test]
    fn unknown_texture_is_rejected() {
        let mut s = CommandStream::new();
        s.commands.push(Command::BindTexture(Some(TextureId(3))));
        let err = play(&s).unwrap_err();
        assert_eq!(err, PlayError::UnknownTexture(TextureId(3)));
    }

    #[test]
    fn non_contiguous_program_upload_is_rejected() {
        let mut s = CommandStream::new();
        s.commands
            .push(Command::ProgramData(ShaderProgram::vertex(1, "v", 1)));
        assert_eq!(play(&s).unwrap_err(), PlayError::BadProgramUpload);
    }
}
