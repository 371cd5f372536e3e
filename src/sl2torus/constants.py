"""Fixed, arbitrary geometry constants for the 3D depiction.

Only the structure of the picture is contractual; these numbers just make
the rendering readable and the per-component embeddings injective.
"""

FIGURES = ("ab", "bc", "bd", "overall")  # what `plot` draws

TORUS_MAJOR = 2.0        # distance from torus axis to tube center
TORUS_MINOR = 0.7        # tube radius
Z_TWIST = 0.3            # z-perturbation separating the four anchor points
SHEET_BUMP = 0.8         # out-of-plane bump of the two AA sheets
CIRCLE_RADIUS = 0.35     # radius of the four B/C circles
CIRCLE_OFFSET = 0.9      # y-offset of each B/C circle from its anchor

# orthographic camera for the SVG projection
CAMERA_U = (1.0, 0.0, 0.45)
CAMERA_V = (0.0, -1.0, -0.35)

SAMPLE_MARGIN = 0.05     # shrink of open parameter ranges when sampling
LAM_SAMPLE_RANGE = (0.05, 0.95)
CONJ_LOG_SCALE_RANGE = (-2.0, 2.0)
CONJ_SHEAR_RANGE = (-2.0, 2.0)
