"""Online joint-trajectory adaptation under guaranteed kinematic bounds.

Subpackages/modules:

- ``limits``      valid acceleration ranges, clipping, step integration and peaks
- ``kinematics``  serial-chain FK/IK and plate motion
- ``trajectory``  reference-trajectory generation pipeline and dataset IO
- ``environment`` ball-on-plate physics, task rewards, sensors, metrics
- ``adaptation``  per-step engine: observation, clipping, reward, rollout
- ``policy``      policy interface, scripted baselines, linear policy
- ``config``      run-config schema, resolved and checked once per command
- ``cli``         generate / validate-limits / rollout / eval commands
"""

__version__ = "0.1.0"
