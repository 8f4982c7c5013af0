//! Building a custom workload from scratch and running it through the
//! whole stack — the extension path for users who want to study their
//! own applications instead of the bundled Table II suite.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```
//!
//! The workload is a small tower-defense-like game with three scripted
//! phases (build, wave, boss); the example shows that MEGsim recovers
//! exactly that phase structure.

use megsim_core::flow::{self, Flow};
use megsim_core::pipeline::MegsimConfig;
use megsim_gfx::draw::BlendMode;
use megsim_gfx::shader::{ShaderId, ShaderProgram, ShaderTable, TextureFilter};
use megsim_gfx::texture::TextureDesc;
use megsim_mem::AddressSpace;
use megsim_timing::GpuConfig;
use megsim_workloads::{meshes, GameType, ObjectClass, SegmentTemplate, Workload, WorkloadSpec};

fn main() {
    // --- 1. Shader library -------------------------------------------
    let mut shaders = ShaderTable::new();
    shaders.add(ShaderProgram::vertex(0, "sprite_vs", 12));
    shaders.add(ShaderProgram::vertex(1, "tower_vs", 24));
    shaders.add(ShaderProgram::fragment(
        0,
        "sprite_fs",
        8,
        vec![TextureFilter::Bilinear],
    ));
    shaders.add(ShaderProgram::fragment(
        1,
        "lit_fs",
        18,
        vec![TextureFilter::Bilinear, TextureFilter::Trilinear],
    ));
    shaders.add(ShaderProgram::fragment(2, "particle_fs", 5, vec![]));

    // --- 2. Object classes per phase ---------------------------------
    let class = |mesh: usize, vs: u32, fs: u32, count: f64, size: f32| ObjectClass {
        mesh,
        vertex_shader: ShaderId(vs),
        fragment_shader: ShaderId(fs),
        texture: Some(0),
        blend: BlendMode::Opaque,
        depth_test: false,
        base_count: count,
        count_amplitude: 0.5,
        wobble_freq: 0.4,
        size,
        tilt: 0.0,
        distance: 8.0,
    };
    let templates = vec![
        SegmentTemplate {
            label: "build".into(),
            classes: vec![class(0, 0, 0, 6.0, 0.06), class(3, 0, 2, 2.0, 0.04)],
        },
        SegmentTemplate {
            label: "wave".into(),
            classes: vec![
                class(0, 0, 0, 6.0, 0.06),
                class(0, 1, 1, 14.0, 0.05),
                class(3, 0, 2, 6.0, 0.03),
            ],
        },
        SegmentTemplate {
            label: "boss".into(),
            classes: vec![
                class(0, 0, 0, 6.0, 0.06),
                class(4, 1, 1, 3.0, 0.12),
                class(3, 0, 2, 12.0, 0.03),
            ],
        },
    ];

    // --- 3. Timeline: build → wave → build → wave → boss, twice ------
    let mut timeline = Vec::new();
    for _ in 0..2 {
        timeline.extend([(0usize, 40usize), (1, 60), (0, 30), (1, 60), (2, 50)]);
    }

    let workload = Workload::new(WorkloadSpec {
        name: "My Tower Defense".into(),
        alias: "mtd".into(),
        game_type: GameType::TwoD,
        shaders,
        textures: vec![TextureDesc::new(0, 128, 128, 4, AddressSpace::TEXTURE_BASE)],
        meshes: vec![
            meshes::unit_quad(AddressSpace::VERTEX_BASE),
            meshes::unit_cube(AddressSpace::VERTEX_BASE + 0x10C0),
            meshes::grid(4, 4, AddressSpace::VERTEX_BASE + 0x2180),
            meshes::disc(8, AddressSpace::VERTEX_BASE + 0x3240),
            meshes::gem(6, AddressSpace::VERTEX_BASE + 0x4300),
        ],
        templates,
        timeline,
        seed: 2024,
        noise: 0.04,
        spike_probability: 0.01,
        transition_boost: 2.0,
    });

    // --- 4. Run the full MEGsim flow ----------------------------------
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();
    println!(
        "custom workload '{}': {} frames, 3 scripted phases",
        workload.name,
        workload.frames()
    );
    let source = (workload.shaders(), || workload.iter_frames());
    let run = flow::ground_truth(&source, &Flow::new(&gpu, config))
        .expect("the workload has frames")
        .run();

    println!(
        "MEGsim found {} clusters (phases + intensity variants), {:.1}x reduction",
        run.frames_simulated(),
        run.reduction_factor()
    );
    println!(
        "cycles error {:.3}%, worst metric error {:.3}%",
        run.errors.cycles * 100.0,
        run.errors.max() * 100.0
    );

    // Show which scripted segment each representative fell into.
    println!("\nrepresentatives vs script:");
    for rep in &run.selection.representatives {
        let segment = workload.segment_at(rep.frame_index);
        println!(
            "  frame {:>4} ({}) represents {:>4} frames",
            rep.frame_index,
            workload.templates()[segment.template].label,
            rep.cluster_size
        );
    }
}
