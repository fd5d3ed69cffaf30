"""Distributed stages. Import each from its submodule (`stages.temporal`,
`stages.dedup`, ...): the package root re-exports nothing, so a Ray
worker that unpickles one stage imports only that stage's module."""
