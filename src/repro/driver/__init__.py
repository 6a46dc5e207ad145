"""The OSIRIS host device driver."""

from .cache_policy import CachePolicy
from .config import CachePolicyKind, DriverConfig
from .osiris_driver import ChannelDriver, DriverSession, OsirisDriver

__all__ = [
    "OsirisDriver", "ChannelDriver", "DriverSession",
    "DriverConfig", "CachePolicyKind", "CachePolicy",
]
