//! Input frames, all derived from the run's `--seed` before any timing.

use chambolle_imaging::{render_sequence, FlowField, Grid, Image, Motion, NoiseTexture, Scene};

use crate::schedule::SplitMix64;

/// A textured frame plus uniform noise of amplitude `noise`: the kind of
/// input a TV denoiser is for, with content fixed by `rng`.
pub fn noisy_frame(rng: &mut SplitMix64, width: usize, height: usize, noise: f32) -> Image {
    let clean = NoiseTexture::new(rng.next_u64()).render(width, height);
    let mut noise_rng = rng.fork(1);
    clean.map(|&v| v + noise * (noise_rng.next_f64() as f32 - 0.5))
}

/// A frame pair with known motion and its ground-truth flow.
#[derive(Debug, Clone)]
pub struct FlowCase {
    /// Frame at time 0.
    pub i0: Image,
    /// Frame at time 1.
    pub i1: Image,
    /// Analytic flow from `i0` to `i1`.
    pub truth: FlowField,
    /// The motion that produced the pair.
    pub motion: Motion,
}

/// A `width × height` pair under a seeded translation of 0.5–1.5 px per axis
/// or a seeded similarity (rotation up to ±0.03 rad, zoom within ±1 %)
/// about the frame centre, rendered with `render_sequence`.
pub fn flow_case(rng: &mut SplitMix64, width: usize, height: usize) -> FlowCase {
    let texture = NoiseTexture::new(rng.next_u64());
    let translate = rng.next_u64().is_multiple_of(2);
    let mut signed = |lo: f64, hi: f64| {
        let magnitude = lo + (hi - lo) * rng.next_f64();
        (if rng.next_f64() < 0.5 {
            -magnitude
        } else {
            magnitude
        }) as f32
    };
    let motion = if translate {
        Motion::Translation {
            du: signed(0.5, 1.5),
            dv: signed(0.5, 1.5),
        }
    } else {
        Motion::Similarity {
            cx: width as f32 / 2.0,
            cy: height as f32 / 2.0,
            angle: signed(0.01, 0.03),
            scale: 1.0 + signed(0.0, 0.01),
        }
    };
    let mut frames = render_sequence(&texture, width, height, motion, 2);
    let i1 = frames.pop().expect("two frames rendered");
    let i0 = frames.pop().expect("two frames rendered");
    FlowCase {
        i0,
        i1,
        truth: motion.ground_truth(width, height),
        motion,
    }
}

/// A request frame with content of its own: `base` with an 8×8 patch (or
/// the whole frame, if smaller) overwritten by values drawn from `content`.
/// Distinct `content` seeds give distinct pixels, so no two requests of a
/// run can share a cached result.
pub fn request_frame(base: &Grid<f32>, content: u64) -> Grid<f32> {
    let mut rng = SplitMix64::new(content);
    let (w, h) = base.dims();
    let (pw, ph) = (w.min(8), h.min(8));
    let x0 = (rng.next_u64() % (w - pw + 1) as u64) as usize;
    let y0 = (rng.next_u64() % (h - ph + 1) as u64) as usize;
    let mut frame = base.clone();
    for y in y0..y0 + ph {
        for x in x0..x0 + pw {
            frame[(x, y)] = rng.next_f64() as f32;
        }
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_set_of_frames() {
        let a = noisy_frame(&mut SplitMix64::new(3), 96, 64, 0.1);
        let b = noisy_frame(&mut SplitMix64::new(3), 96, 64, 0.1);
        let c = noisy_frame(&mut SplitMix64::new(4), 96, 64, 0.1);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());

        let f = flow_case(&mut SplitMix64::new(5), 64, 48);
        let g = flow_case(&mut SplitMix64::new(5), 64, 48);
        assert_eq!(f.motion, g.motion);
        assert_eq!(f.i0.as_slice(), g.i0.as_slice());
        assert_eq!(f.i1.as_slice(), g.i1.as_slice());
        assert_eq!(f.truth.u1.as_slice(), g.truth.u1.as_slice());
    }

    #[test]
    fn request_frames_are_distinct_and_reproducible() {
        let base = noisy_frame(&mut SplitMix64::new(9), 32, 32, 0.1);
        let a = request_frame(&base, 11);
        assert_eq!(a.as_slice(), request_frame(&base, 11).as_slice());
        assert_ne!(a.as_slice(), request_frame(&base, 12).as_slice());
        assert_ne!(a.as_slice(), base.as_slice());
        let tiny = Grid::new(3, 2, 0.5f32);
        assert_ne!(request_frame(&tiny, 1).as_slice(), tiny.as_slice());
    }
}
