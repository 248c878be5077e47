"""Variational min-max solver for the super sinh-Gordon system on flat 2-tori."""
