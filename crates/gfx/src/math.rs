//! Minimal linear-algebra types used throughout the graphics pipeline.
//!
//! Only the operations the simulator needs are implemented: enough to
//! express model/view/projection transforms, perspective division and the
//! viewport mapping of the Geometry Pipeline, plus the 2-D edge functions
//! used by the rasterizer.

use std::ops::{Add, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

/// A 2-component single-precision vector (screen-space positions, UVs).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-component single-precision vector (model-space positions, normals).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-component single-precision vector (homogeneous/clip coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W (homogeneous) component.
    pub w: f32,
}

impl Vec2 {
    /// Creates a vector from its components.
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Dot product.
    fn dot(self, rhs: Self) -> f32 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Euclidean length.
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }
}

impl Vec3 {
    /// Zero vector.
    pub const ZERO: Self = Self::new(0.0, 0.0, 0.0);

    /// Creates a vector from its components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    pub const fn splat(v: f32) -> Self {
        Self::new(v, v, v)
    }

    /// Extends to a homogeneous point (`w = 1`).
    fn to_point4(self) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, 1.0)
    }
}

impl Vec4 {
    /// Creates a vector from its components.
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Performs the perspective division of the Geometry Pipeline.
    ///
    /// The caller must ensure `w != 0`; clip-space points with `w == 0`
    /// are rejected earlier by the clipper.
    pub fn perspective_divide(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }
}

macro_rules! impl_vec_ops {
    ($t:ty { $($f:ident),+ }) => {
        impl Add for $t {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self { $($f: self.$f + rhs.$f),+ }
            }
        }
        impl Sub for $t {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self { $($f: self.$f - rhs.$f),+ }
            }
        }
        impl Mul<f32> for $t {
            type Output = Self;
            fn mul(self, rhs: f32) -> Self {
                Self { $($f: self.$f * rhs),+ }
            }
        }
        impl Div<f32> for $t {
            type Output = Self;
            fn div(self, rhs: f32) -> Self {
                Self { $($f: self.$f / rhs),+ }
            }
        }
        impl Neg for $t {
            type Output = Self;
            fn neg(self) -> Self {
                Self { $($f: -self.$f),+ }
            }
        }
    };
}

impl_vec_ops!(Vec2 { x, y });
impl_vec_ops!(Vec3 { x, y, z });
impl_vec_ops!(Vec4 { x, y, z, w });

/// A column-major 4×4 matrix, the workhorse of the vertex shader stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat4 {
    /// Columns of the matrix.
    pub cols: [Vec4; 4],
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat4 {
    /// The identity transform.
    pub const IDENTITY: Self = Self {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from four columns.
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Translation matrix.
    pub fn translation(t: Vec3) -> Self {
        let mut m = Self::IDENTITY;
        m.cols[3] = Vec4::new(t.x, t.y, t.z, 1.0);
        m
    }

    /// Non-uniform scale matrix.
    pub fn scale(s: Vec3) -> Self {
        Self::from_cols(
            Vec4::new(s.x, 0.0, 0.0, 0.0),
            Vec4::new(0.0, s.y, 0.0, 0.0),
            Vec4::new(0.0, 0.0, s.z, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the X axis by `angle` radians.
    pub fn rotation_x(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, c, s, 0.0),
            Vec4::new(0.0, -s, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the Y axis by `angle` radians.
    pub fn rotation_y(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, 0.0, -s, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(s, 0.0, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation about the Z axis by `angle` radians.
    pub fn rotation_z(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, s, 0.0, 0.0),
            Vec4::new(-s, c, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Right-handed perspective projection.
    ///
    /// `fov_y` is the vertical field of view in radians; depth maps to
    /// `[-1, 1]` clip space (OpenGL convention, matching the paper's
    /// OpenGL-trace-driven pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `near >= far` or `fov_y` is not in `(0, π)`.
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Self {
        assert!(near < far, "near plane must be closer than far plane");
        assert!(
            fov_y > 0.0 && fov_y < std::f32::consts::PI,
            "field of view out of range"
        );
        let f = 1.0 / (fov_y * 0.5).tan();
        Self::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (far + near) / (near - far), -1.0),
            Vec4::new(0.0, 0.0, (2.0 * far * near) / (near - far), 0.0),
        )
    }

    /// Transforms a homogeneous vector.
    pub fn transform(&self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }

    /// Transforms a 3-D point (`w = 1`).
    pub fn transform_point(&self, p: Vec3) -> Vec4 {
        self.transform(p.to_point4())
    }
}

impl Mul for Mat4 {
    type Output = Self;

    fn mul(self, rhs: Self) -> Self {
        Self {
            cols: [
                self.transform(rhs.cols[0]),
                self.transform(rhs.cols[1]),
                self.transform(rhs.cols[2]),
                self.transform(rhs.cols[3]),
            ],
        }
    }
}

/// Twice the signed area of triangle `(a, b, c)` in screen space.
///
/// Positive for counter-clockwise winding in a Y-up coordinate system.
/// This doubles as the rasterizer's edge-function setup value.
pub fn signed_area2(a: Vec2, b: Vec2, c: Vec2) -> f32 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Edge function: positive when point `p` lies to the left of edge `a→b`.
pub fn edge_function(a: Vec2, b: Vec2, p: Vec2) -> f32 {
    (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn identity_transform_is_noop() {
        let p = Vec4::new(1.0, 2.0, 3.0, 1.0);
        assert_eq!(Mat4::IDENTITY.transform(p), p);
    }

    #[test]
    fn translation_moves_points() {
        let m = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
        let p = m.transform_point(Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(p, Vec4::new(1.0, 2.0, 3.0, 1.0));
    }

    #[test]
    fn matrix_multiplication_composes() {
        let t = Mat4::translation(Vec3::new(1.0, 0.0, 0.0));
        let s = Mat4::scale(Vec3::splat(2.0));
        // (t * s) applies the scale first, then the translation.
        let p = (t * s).transform_point(Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(p, Vec4::new(3.0, 2.0, 2.0, 1.0));
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let m = Mat4::rotation_y(std::f32::consts::FRAC_PI_2);
        let p = m.transform_point(Vec3::new(1.0, 0.0, 0.0));
        assert!(approx(p.x, 0.0) && approx(p.z, -1.0));
    }

    #[test]
    fn perspective_maps_near_plane_to_minus_one() {
        let m = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 100.0);
        let p = m.transform_point(Vec3::new(0.0, 0.0, -1.0));
        assert!(approx(p.z / p.w, -1.0));
    }

    #[test]
    #[should_panic(expected = "near plane")]
    fn perspective_rejects_inverted_planes() {
        let _ = Mat4::perspective(1.0, 1.0, 10.0, 1.0);
    }

    #[test]
    fn signed_area_ccw_positive() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        let c = Vec2::new(0.0, 1.0);
        assert!(signed_area2(a, b, c) > 0.0);
        assert!(signed_area2(a, c, b) < 0.0);
    }

    #[test]
    fn edge_function_sign_matches_side() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        assert!(edge_function(a, b, Vec2::new(0.5, 1.0)) > 0.0);
        assert!(edge_function(a, b, Vec2::new(0.5, -1.0)) < 0.0);
    }
}
