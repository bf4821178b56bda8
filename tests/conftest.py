import pytest

from buscast.synth import SynthConfig

from synth_oracle import generate_dataset


@pytest.fixture(scope="session")
def small_dataset():
    """30 days, 5 stops, default effects; shared by read-only tests."""
    return generate_dataset(SynthConfig(n_days=30, seed=11))


@pytest.fixture(scope="session")
def quiet_dataset():
    """Zero noise, zero effects: every (stop, service) series is constant."""
    return generate_dataset(
        SynthConfig(
            n_days=14,
            seed=5,
            rain_effect=0.0,
            weekend_effect=0.0,
            latent_weight=0.0,
            noise_scale=0.0,
        )
    )
