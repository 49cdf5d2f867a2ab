"""Synthesize an event stream from a moving-bar scene and bin it into
occurrence maps.

An event camera reports (u, v, t, polarity) tuples whenever a pixel gets
brighter (ON) or darker (OFF). Fixed-width time bins turn that stream into
a binary [T, 2, H, W] tensor: cell (t, c, y, x) is 1 iff at least one event
of polarity c fired at (x, y) during bin t.
"""

import os
import tempfile

import numpy as np

from etide.events import (bin_events, random_bar_scene, read_evt, read_ocm,
                          synth_scene, write_evt, write_ocm)

rng = np.random.default_rng(42)
scene = random_bar_scene(rng, width=48, height=24, n_bins=8,
                         n_objects=(2, 2))
for obj in scene.objects:
    print(f"bar at ({obj.x:.1f},{obj.y:.1f}) size {obj.width}x{obj.height} "
          f"velocity ({obj.vx:+.1f},{obj.vy:+.1f}) px/bin")

stream = synth_scene(scene, seed=7)
print(f"\n{len(stream.t)} events over {stream.t[-1] - stream.t[0]} us, "
      f"{int((stream.p == 1).sum())} ON / {int((stream.p == -1).sum())} OFF")

occ = bin_events(stream, t0=0, bin_duration=scene.bin_duration,
                 t_count=scene.n_bins)
print(f"occurrence tensor {occ.frames.shape}, "
      f"density {occ.frames.mean():.3f}")

# events fire where edges cross pixels, so each polarity traces the moving
# edges of the bar; print bin 3 as ascii (ON='+', OFF='-', both='#')
on, off = occ.frames[3]
for y in range(occ.frames.shape[2]):
    row = ""
    for x in range(occ.frames.shape[3]):
        row += "#+-."[int(3 - 2 * on[y, x] - off[y, x])]
    print(row)

# both container formats round-trip losslessly
with tempfile.TemporaryDirectory() as tmp:
    evt_path = os.path.join(tmp, "demo_scene.evt1")
    ocm_path = os.path.join(tmp, "demo_scene.ocm1")
    write_evt(evt_path, stream)
    write_ocm(ocm_path, occ)
    assert np.array_equal(read_evt(evt_path).t, stream.t)
    assert np.array_equal(read_ocm(ocm_path).frames, occ.frames)
print("\nEVT1 and OCM1 round-trips exact")
