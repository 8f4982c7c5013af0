//! Records rendered frames as a GL command stream — the role of
//! TEAPOT's interception layer between the application and the driver.
//!
//! The recorder deduplicates resources (meshes, textures, programs are
//! uploaded once) and emits state-change commands only when the state
//! actually differs from the current one, which is what makes command
//! traces compact compared to per-frame scene dumps.

use std::collections::HashMap;
use std::sync::Arc;

use megsim_gfx::draw::{BlendMode, DrawCall, Frame};
use megsim_gfx::geometry::Mesh;
use megsim_gfx::math::Mat4;
use megsim_gfx::shader::{ShaderId, ShaderTable};
use megsim_gfx::texture::TextureId;

use crate::command::{BufferId, Command, CommandStream};

/// Incremental command-stream recorder.
#[derive(Debug)]
pub struct Recorder {
    stream: CommandStream,
    buffers: HashMap<*const Mesh, BufferId>,
    /// Keeps mesh payloads alive while their raw pointers key `buffers`.
    retained: Vec<Arc<Mesh>>,
    textures_seen: HashMap<TextureId, bool>,
    program: Option<(ShaderId, ShaderId)>,
    texture: Option<Option<TextureId>>,
    matrix: Option<Mat4>,
    blend: Option<BlendMode>,
    depth: Option<bool>,
}

impl Recorder {
    /// Starts a recording with the workload's shader library uploaded in
    /// the prelude.
    fn new(shaders: &ShaderTable) -> Self {
        let mut stream = CommandStream::new();
        for p in shaders.vertex_shaders().chain(shaders.fragment_shaders()) {
            stream.commands.push(Command::ProgramData(p.clone()));
        }
        Self {
            stream,
            buffers: HashMap::new(),
            retained: Vec::new(),
            textures_seen: HashMap::new(),
            program: None,
            texture: None,
            matrix: None,
            blend: None,
            depth: None,
        }
    }

    /// Records one frame's draw calls followed by a SwapBuffers.
    fn record_frame(&mut self, frame: &Frame) {
        for draw in &frame.draws {
            self.record_draw(draw);
        }
        self.stream.commands.push(Command::SwapBuffers);
    }

    fn record_draw(&mut self, draw: &DrawCall) {
        // Resource uploads (once per object, identified by allocation).
        let key = Arc::as_ptr(&draw.mesh);
        let buffer = match self.buffers.get(&key) {
            Some(&id) => id,
            None => {
                let id = BufferId(self.buffers.len() as u32);
                self.buffers.insert(key, id);
                self.retained.push(Arc::clone(&draw.mesh));
                self.stream.commands.push(Command::BufferData {
                    id,
                    mesh: (*draw.mesh).clone(),
                });
                id
            }
        };
        if let Some(tex) = draw.texture {
            if self.textures_seen.insert(tex.id, true).is_none() {
                self.stream.commands.push(Command::TexImage(tex));
            }
        }
        // State changes (only when different).
        let program = (draw.vertex_shader, draw.fragment_shader);
        if self.program != Some(program) {
            self.program = Some(program);
            self.stream.commands.push(Command::UseProgram {
                vertex: program.0,
                fragment: program.1,
            });
        }
        let tex_id = draw.texture.map(|t| t.id);
        if self.texture != Some(tex_id) {
            self.texture = Some(tex_id);
            self.stream.commands.push(Command::BindTexture(tex_id));
        }
        if self.matrix != Some(draw.transform) {
            self.matrix = Some(draw.transform);
            self.stream
                .commands
                .push(Command::UniformMatrix(draw.transform));
        }
        if self.blend != Some(draw.blend) {
            self.blend = Some(draw.blend);
            self.stream.commands.push(Command::Blend(draw.blend));
        }
        if self.depth != Some(draw.depth_test) {
            self.depth = Some(draw.depth_test);
            self.stream
                .commands
                .push(Command::DepthTest(draw.depth_test));
        }
        self.stream.commands.push(Command::Draw(buffer));
    }

    /// Finishes the recording and returns the stream.
    fn finish(self) -> CommandStream {
        self.stream
    }
}

/// Records a whole frame sequence in one call.
pub fn record_sequence<'a>(
    shaders: &ShaderTable,
    frames: impl IntoIterator<Item = &'a Frame>,
) -> CommandStream {
    let mut rec = Recorder::new(shaders);
    for f in frames {
        rec.record_frame(f);
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::geometry::Vertex;
    use megsim_gfx::math::Vec3;
    use megsim_gfx::shader::ShaderProgram;
    use megsim_gfx::texture::TextureDesc;

    fn shaders() -> ShaderTable {
        let mut t = ShaderTable::new();
        t.add(ShaderProgram::vertex(0, "v", 5));
        t.add(ShaderProgram::fragment(0, "f", 5, vec![]));
        t
    }

    fn frame_with_draws(mesh: &Arc<Mesh>, n: usize) -> Frame {
        let mut f = Frame::new();
        for i in 0..n {
            f.draws.push(DrawCall {
                mesh: Arc::clone(mesh),
                transform: Mat4::translation(Vec3::new(i as f32, 0.0, 0.0)),
                vertex_shader: ShaderId(0),
                fragment_shader: ShaderId(0),
                texture: Some(TextureDesc::new(0, 64, 64, 4, 0x1000)),
                blend: BlendMode::Opaque,
                depth_test: true,
            });
        }
        f
    }

    fn mesh() -> Arc<Mesh> {
        Arc::new(Mesh::new(
            vec![Vertex::at(Vec3::ZERO); 3],
            vec![0, 1, 2],
            0x40,
        ))
    }

    #[test]
    fn resources_are_uploaded_once() {
        let m = mesh();
        let frames = [frame_with_draws(&m, 3), frame_with_draws(&m, 2)];
        let stream = record_sequence(&shaders(), &frames);
        let uploads = stream
            .commands
            .iter()
            .filter(|c| matches!(c, Command::BufferData { .. }))
            .count();
        let tex_uploads = stream
            .commands
            .iter()
            .filter(|c| matches!(c, Command::TexImage(_)))
            .count();
        assert_eq!(uploads, 1);
        assert_eq!(tex_uploads, 1);
        assert_eq!(stream.frame_count(), 2);
        assert_eq!(stream.draw_count(), 5);
    }

    #[test]
    fn unchanged_state_is_not_reissued() {
        let m = mesh();
        let frames = [frame_with_draws(&m, 4)];
        let stream = record_sequence(&shaders(), &frames);
        // One UseProgram/Blend/DepthTest/BindTexture for 4 draws; the
        // matrix changes per draw.
        let count = |pred: fn(&Command) -> bool| stream.commands.iter().filter(|c| pred(c)).count();
        assert_eq!(count(|c| matches!(c, Command::UseProgram { .. })), 1);
        assert_eq!(count(|c| matches!(c, Command::Blend(_))), 1);
        assert_eq!(count(|c| matches!(c, Command::DepthTest(_))), 1);
        assert_eq!(count(|c| matches!(c, Command::BindTexture(_))), 1);
        assert_eq!(count(|c| matches!(c, Command::UniformMatrix(_))), 4);
    }

    #[test]
    fn prelude_carries_all_programs() {
        let stream = record_sequence(&shaders(), &[]);
        let programs = stream
            .commands
            .iter()
            .filter(|c| matches!(c, Command::ProgramData(_)))
            .count();
        assert_eq!(programs, 2);
    }
}
