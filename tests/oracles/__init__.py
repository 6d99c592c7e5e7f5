"""Pure-Python reference implementations used only as test oracles."""
