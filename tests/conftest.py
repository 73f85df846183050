import numpy as np
import pytest

from dde import data, train


TINY_ARCH = {"widths": (4, 8), "latent_dim": 10,
             "rep_dims": {"haze": [1], "backdrop": [3]},
             "input_shape": (3, 32, 32)}


@pytest.fixture(scope="session")
def tiny_dataset():
    ds = data.generate(data.default_factor_specs(),
                       {"train": 6, "calibration": 4, "test": 4}, seed=11)
    data.build_all_pairs(ds, 30, seed=11)
    return ds


@pytest.fixture(scope="session")
def tiny_teacher(tiny_dataset):
    cfg = train.TeacherConfig(arch=dict(TINY_ARCH), epochs=10, batch_size=8, seed=11)
    return train.train_teacher(tiny_dataset, cfg)


@pytest.fixture(scope="session")
def tiny_student(tiny_teacher, tiny_dataset):
    cfg = train.TrainConfig(epochs=2, batch_size=8, seed=11)
    student, trace = train.distill(tiny_teacher, tiny_dataset, cfg)
    return student
