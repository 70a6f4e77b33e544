"""Trustworthiness ranking of fact-providing websites against a knowledge base."""
