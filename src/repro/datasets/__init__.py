"""Datasets: synthetic generators, statistics, preprocessing and I/O.

The paper evaluates on seven real datasets (Table III).  Offline, this
package generates synthetic stand-ins parameterized by each dataset's
published statistics — cardinality, average length, spatial span — at a
configurable scale.  The real datasets are not bundled, so every
experiment in this repository runs on these stand-ins; the scale knob
keeps paper-sized runs optional.
"""

from .stats import DATASET_SPECS, DatasetSpec
from .synthetic import generate_dataset, TrajectoryGenerator
from .preprocess import preprocess, sample_queries
from .io import load_csv, save_csv

__all__ = [
    "DATASET_SPECS",
    "DatasetSpec",
    "generate_dataset",
    "TrajectoryGenerator",
    "preprocess",
    "sample_queries",
    "load_csv",
    "save_csv",
]
