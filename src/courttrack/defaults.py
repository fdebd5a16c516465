"""The built-in default of every setting, in one module that imports no numpy.

The CLI builds its parser and resolves its settings from these values
before it imports a command's modules, and the modules that take them as
defaults import them from here.
"""

# cost: the weights of the distance and overlap terms; the content term gets the rest
DEFAULT_ALPHA = 0.65
DEFAULT_BETA = 0.05

# track: the matcher's cost gate, its memory in frames and the keypoint patch half-extent in pixels
DEFAULT_GATE = 0.5
DEFAULT_MEMORY_DEPTH = 2
DEFAULT_HALF_EXTENT = 12

# metrics: the IoU a CLEAR-MOT match needs
MOT_IOU_THRESHOLD = 0.5

# court: the dominant lines fed to the boundary search, the NBA convergence step and drop tolerance
DEFAULT_CANDIDATES = 10
DEFAULT_STEP_PX = 2.0
DEFAULT_DROP_TOL = 0.005

# synth: the scenario that ScenarioSpec() describes
SCENE_TARGETS = 10
SCENE_FRAMES = 40
SCENE_WIDTH = 640
SCENE_HEIGHT = 360
SCENE_PAN = (0.0, 0.0)
SCENE_DROPOUT = 0.0
SCENE_JITTER = 0.0
SCENE_EXTRA_DROPOUT = 0.0
SCENE_SEED = 0
