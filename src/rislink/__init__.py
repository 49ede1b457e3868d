"""Link budget and discrete-phase beamforming for active transmissive
reconfigurable surfaces.

The public surface re-exports the pieces most analyses touch: geometry and
channel primitives, per-unit hardware models, full-link evaluation, the
configuration searches, and the sweeps.  Every link comes from
`chamber_scenario` and every sweep is one `SweepJob`, both validated when
built; configs and commands build the same objects, so all three report a
bad value in the same words.
"""

from .beamforming import (
    FeedbackChannel,
    SearchTrace,
    blind_rowcol_search,
    brute_force_optimum,
    greedy_element_search,
    nearest_quantize,
    power_oracle,
    uniform_configuration,
)
from .channel import (
    SPEED_OF_LIGHT,
    AntennaModel,
    effective_area,
    wavelength,
)
from .config import ConfigError, load_run_plan
from .experiments import (
    PatternResult,
    SweepJob,
    SweepResult,
    apply_beamforming,
    chamber_scenario,
    half_power_beamwidth,
    incidence_side_pose,
    peak_to_sidelobe,
    run_config,
    run_sweep,
    sweep_grid,
    transmission_side_pose,
)
from .geometry import (
    ArrayLayout,
    SphericalPose,
    element_grid,
    spherical_to_cartesian,
)
from .link import (
    InfinitePathLossError,
    Scenario,
    element_weights,
    from_db,
    max_received_power,
    path_loss,
    path_loss_db,
    propagation_phases,
    received_power,
    received_power_expanded,
    to_db,
    watts_to_dbm,
)
from .ris import (
    AmplifierModel,
    ControlWord,
    PhaseCodebook,
    PhaseJitterModel,
    SupplyBudgetError,
    decode_control,
    encode_control,
)

__version__ = "0.1.0"
