"""Desk-scale neural ODE laboratory: autograd engine, adaptive RK45 solver,
NODE/ANODE/ResNet models, dataset generators, training harness and CLI."""

from .tensorgrad import CompGraph, ParamSet, Tensor, backward, grad_check
from .odeint import (DivergenceError, OdeSolution, SolverConfig, StepLimitError,
                     adapt_step, integrate)
from .models import (FlowSnapshot, Model, ModelSpec, augment, features,
                     flow_trajectory, node_forward, param_count, vector_field)
from .data import (LabeledSet, SphereAnnulusConfig, angular_split, batches,
                   gen_concentric, gen_g1d, load_idx, write_idx)
from .train import (AdamState, TrainConfig, TrainRecord, adam_step, fit,
                    grid_search)

__version__ = "0.1.0"
