//! Classic ray tracing as a timing workload: the RT unit's native job.
//!
//! Not one of the paper's four evaluation workloads, but the baseline the
//! HSU must remain compatible with (§III-B: "fully compatible with existing
//! graphics ray tracing interfaces"). One thread per ray performs a stack
//! traversal with box-mode `RAY_INTERSECT`s on internal nodes and
//! triangle-mode tests at leaves; the baseline lowering expands both into
//! SIMT loads + slab/Woop arithmetic.

use hsu_bvh::{LbvhBuilder, TrianglePrimitive};
use hsu_core::node::TriangleNode;
use hsu_geometry::{Ray, Triangle, Vec3};
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};

use crate::layout::PRIM_INDEX_BASE;
use crate::lowering::{emit_triangle_test, Variant};
use crate::traversal::{emit_node_test, emit_pop, StackEvent, StackRecorder};

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct RenderParams {
    /// Frame width in pixels (one primary ray per pixel).
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Terrain tessellation (triangles = 2 * grid^2 + 4).
    pub grid: usize,
    /// RNG seed (jitters the camera).
    pub seed: u64,
}

impl Default for RenderParams {
    fn default() -> Self {
        RenderParams {
            width: 64,
            height: 32,
            grid: 20,
            seed: 1,
        }
    }
}

/// A prepared render workload.
#[derive(Debug)]
pub struct RenderWorkload {
    events: Vec<Vec<StackEvent>>,
    /// Fraction of primary rays that hit geometry.
    pub hit_rate: f64,
    /// Mean triangle tests per ray.
    pub mean_triangle_tests: f64,
}

impl RenderWorkload {
    /// Builds the procedural scene and records every primary ray as the
    /// hierarchy's own [`hsu_bvh::Bvh2::intersect_ray_observed`] walk.
    pub fn build(params: &RenderParams) -> Self {
        let scene = procedural_scene(params.grid);
        let bvh = LbvhBuilder::default().max_leaf_size(2).build(&scene);

        let eye = Vec3::new(0.0, 2.2 + (params.seed % 7) as f32 * 0.05, -6.0);
        let mut events = Vec::with_capacity(params.width * params.height);
        let mut hits = 0usize;
        let mut tri_tests = 0u64;
        for py in 0..params.height {
            for px in 0..params.width {
                let u = px as f32 / params.width as f32 * 2.0 - 1.0;
                let v = 1.0 - py as f32 / params.height as f32 * 2.0;
                // Tilt the camera down toward the terrain.
                let ray = Ray::new(eye, Vec3::new(u * 1.2, v * 0.4 - 0.4, 1.0));
                let mut rec = StackRecorder::default();
                if bvh.intersect_ray_observed(&scene, &ray, &mut rec).is_some() {
                    hits += 1;
                }
                tri_tests += rec.tests;
                events.push(rec.events);
            }
        }
        let rays = (params.width * params.height) as f64;
        RenderWorkload {
            events,
            hit_rate: hits as f64 / rays,
            mean_triangle_tests: tri_tests as f64 / rays,
        }
    }

    /// Lowers the recorded rays into a kernel trace.
    pub fn trace(&self, variant: Variant) -> KernelTrace {
        let mut kernel = KernelTrace::builder(format!("render-{variant:?}"));
        for events in &self.events {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 8 }); // ray setup + shear constants
            t.push(ThreadOp::Shared { count: 1 });
            for ev in events {
                match *ev {
                    StackEvent::Pop => emit_pop(&mut t),
                    StackEvent::NodeTest { node, pushes } => {
                        emit_node_test(&mut t, variant, node, pushes);
                    }
                    StackEvent::Primitive { slot, .. } => {
                        let addr = PRIM_INDEX_BASE + slot as u64 * TriangleNode::BYTE_SIZE;
                        emit_triangle_test(&mut t, variant, addr);
                        t.push(ThreadOp::Alu { count: 2 }); // closest-hit update
                    }
                }
            }
            t.push(ThreadOp::Store {
                addr: crate::layout::RESULTS_BASE,
                bytes: 4,
            });
            kernel.push_thread(t);
        }
        kernel.finish()
    }
}

/// A heightfield terrain plus a floating pyramid.
fn procedural_scene(grid: usize) -> Vec<TrianglePrimitive> {
    let mut tris = Vec::new();
    let mut id = 0u32;
    let h = |x: f32, z: f32| 0.35 * ((x * 1.7).sin() + (z * 1.3).cos());
    for i in 0..grid {
        for j in 0..grid {
            let step = 8.0 / grid as f32;
            let (x0, z0) = (i as f32 * step - 4.0, j as f32 * step - 4.0);
            let (x1, z1) = (x0 + step, z0 + step);
            let p = |x: f32, z: f32| Vec3::new(x, h(x, z), z);
            for tri in [
                Triangle::new(p(x0, z0), p(x1, z0), p(x0, z1)),
                Triangle::new(p(x1, z0), p(x1, z1), p(x0, z1)),
            ] {
                tris.push(TrianglePrimitive { id, triangle: tri });
                id += 1;
            }
        }
    }
    let apex = Vec3::new(0.0, 2.2, 0.0);
    let base = [
        Vec3::new(-0.8, 0.9, -0.8),
        Vec3::new(0.8, 0.9, -0.8),
        Vec3::new(0.8, 0.9, 0.8),
        Vec3::new(-0.8, 0.9, 0.8),
    ];
    for k in 0..4 {
        tris.push(TrianglePrimitive {
            id,
            triangle: Triangle::new(base[k], base[(k + 1) % 4], apex),
        });
        id += 1;
    }
    tris
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_sim::config::GpuConfig;
    use hsu_sim::Gpu;

    #[test]
    fn primary_rays_hit_the_scene() {
        let wl = RenderWorkload::build(&RenderParams::default());
        assert!(wl.hit_rate > 0.4, "hit rate {}", wl.hit_rate);
        assert!(wl.mean_triangle_tests > 0.5);
        assert_eq!(wl.events.len(), 64 * 32, "one event log per primary ray");
    }

    #[test]
    fn rt_hardware_accelerates_rendering() {
        let wl = RenderWorkload::build(&RenderParams::default());
        let gpu = Gpu::new(GpuConfig::tiny());
        let hsu = gpu.run(&wl.trace(Variant::Hsu)).unwrap();
        let base = gpu.run(&wl.trace(Variant::Baseline)).unwrap();
        assert!(
            hsu.cycles < base.cycles,
            "RT {} vs base {}",
            hsu.cycles,
            base.cycles
        );
        // Both box and triangle modes flow through the unit.
        use hsu_core::pipeline::OperatingMode;
        assert!(hsu.rt.pipeline.completed[OperatingMode::RayBox.index()] > 0);
        assert!(hsu.rt.pipeline.completed[OperatingMode::RayTriangle.index()] > 0);
    }

    #[test]
    fn render_works_on_baseline_rt_unit() {
        // The render kernel uses only baseline RT instructions, so it must
        // run on a unit with hsu_extensions disabled (ISA compatibility,
        // §III-B).
        let wl = RenderWorkload::build(&RenderParams {
            width: 32,
            height: 16,
            ..Default::default()
        });
        let mut cfg = GpuConfig::tiny();
        cfg.hsu = hsu_core::HsuConfig::baseline_rt();
        let r = Gpu::new(cfg).run(&wl.trace(Variant::Hsu)).unwrap();
        assert!(r.rt.isa_instructions > 0);
    }
}
