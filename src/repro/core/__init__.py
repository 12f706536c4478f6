"""Core contribution: the portable, vectorized Tersoff potential."""
