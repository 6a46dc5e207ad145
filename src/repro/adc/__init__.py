"""Application device channels: user-space direct adaptor access."""

from .channel import AdcGrant, AdcManager, grants_overlap
from .channel_driver import AdcChannelDriver

__all__ = ["AdcManager", "AdcGrant", "AdcChannelDriver", "grants_overlap"]
