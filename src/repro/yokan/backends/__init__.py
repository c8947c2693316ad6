"""Yokan storage backends: in-memory map, LSM tree."""
