"""Exact branch-curve models for blown-up octic seeds, with verification.

From a normalized degree-8 rational polynomial the package constructs, in
exact arithmetic, the degree-9 plane model of the associated genus-4
branch curve, decides general position of the eight base points, certifies
large Galois groups from Frobenius cycle types, and checks the E8-lattice
and mod-2 facts the construction rests on.

Each name is imported from the module that defines it, for example
``from delpezzo1.curve import validate_seed``; the package root imports
nothing.
"""
