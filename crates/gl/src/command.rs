//! The OpenGL-style command vocabulary.
//!
//! TEAPOT's first component is an *OpenGL trace generator* that
//! intercepts the GL commands an application issues and stores them in
//! a trace file; the functional simulator then replays that trace. This
//! module defines the equivalent command vocabulary for this
//! reproduction: resource creation, state binding and draw commands,
//! with explicit frame boundaries.

use serde::{Deserialize, Serialize};

use megsim_gfx::draw::BlendMode;
use megsim_gfx::geometry::Mesh;
use megsim_gfx::math::Mat4;
use megsim_gfx::shader::{ShaderId, ShaderProgram};
use megsim_gfx::texture::TextureDesc;

/// Identifies a buffer object (mesh) within a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BufferId(pub u32);

/// One recorded command.
///
/// The vocabulary follows the GL state-machine style: resources are
/// created once, state is bound, and draws consume the current state —
/// exactly the structure a real intercepted trace has (and what makes
/// traces much smaller than per-frame scene dumps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Uploads an indexed mesh (glBufferData of vertices + indices).
    BufferData {
        /// Stream-local buffer name.
        id: BufferId,
        /// The mesh payload.
        mesh: Mesh,
    },
    /// Registers a texture (glTexImage2D metadata).
    TexImage(TextureDesc),
    /// Registers a shader program (glLinkProgram result).
    ProgramData(ShaderProgram),
    /// Selects the active vertex/fragment shader pair (glUseProgram).
    UseProgram {
        /// Vertex shader of the pair.
        vertex: ShaderId,
        /// Fragment shader of the pair.
        fragment: ShaderId,
    },
    /// Binds a texture, or unbinds with `None` (glBindTexture).
    BindTexture(Option<megsim_gfx::texture::TextureId>),
    /// Sets the model-view-projection matrix (glUniformMatrix4fv).
    UniformMatrix(Mat4),
    /// Sets the blend mode (glBlendFunc / glDisable(GL_BLEND)).
    Blend(BlendMode),
    /// Enables or disables depth testing (glEnable(GL_DEPTH_TEST)).
    DepthTest(bool),
    /// Draws the bound buffer with the current state (glDrawElements).
    Draw(BufferId),
    /// Ends the current frame (eglSwapBuffers).
    SwapBuffers,
}

impl Command {
    /// A compact opcode used by the binary codec.
    pub(crate) const fn opcode(&self) -> u8 {
        match self {
            Command::BufferData { .. } => 0,
            Command::TexImage(_) => 1,
            Command::ProgramData(_) => 2,
            Command::UseProgram { .. } => 3,
            Command::BindTexture(_) => 4,
            Command::UniformMatrix(_) => 5,
            Command::Blend(_) => 6,
            Command::DepthTest(_) => 7,
            Command::Draw(_) => 8,
            Command::SwapBuffers => 9,
        }
    }
}

/// A recorded command stream: a prelude of resource uploads followed by
/// per-frame state/draw commands separated by [`Command::SwapBuffers`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommandStream {
    /// Commands in issue order.
    pub commands: Vec<Command>,
}

impl CommandStream {
    /// Creates an empty stream.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of frames (SwapBuffers commands).
    pub fn frame_count(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, Command::SwapBuffers))
            .count()
    }

    /// Number of draw commands.
    pub fn draw_count(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, Command::Draw(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_draw_counting() {
        let mut s = CommandStream::new();
        s.commands.push(Command::DepthTest(true));
        s.commands.push(Command::Draw(BufferId(0)));
        s.commands.push(Command::Draw(BufferId(0)));
        s.commands.push(Command::SwapBuffers);
        s.commands.push(Command::Draw(BufferId(0)));
        s.commands.push(Command::SwapBuffers);
        assert_eq!(s.frame_count(), 2);
        assert_eq!(s.draw_count(), 3);
    }

    #[test]
    fn opcodes_are_distinct() {
        use std::collections::HashSet;
        let cmds = [
            Command::SwapBuffers,
            Command::DepthTest(true),
            Command::Blend(BlendMode::Opaque),
            Command::Draw(BufferId(0)),
            Command::BindTexture(None),
            Command::UniformMatrix(Mat4::IDENTITY),
            Command::UseProgram {
                vertex: ShaderId(0),
                fragment: ShaderId(0),
            },
        ];
        let ops: HashSet<u8> = cmds.iter().map(Command::opcode).collect();
        assert_eq!(ops.len(), cmds.len());
    }
}
