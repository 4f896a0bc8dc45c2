"""The planner's exceptions, in a module that does not import numpy.

``cli`` maps them to exit codes without loading the planner; ``planner``
raises and re-exports them.
"""


class PlannerError(Exception):
    pass


class CheckpointError(PlannerError):
    pass


class TrainingDiverged(PlannerError):
    pass
