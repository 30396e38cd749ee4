"""Mean curvature flow toolkit for codimension-two surfaces in R^4."""
