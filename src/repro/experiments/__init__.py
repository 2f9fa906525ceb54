"""One module per evaluation table (DESIGN §5): each exposes ``run(...)``
(``table1``: ``analytic``/``empirical``) returning a pandas DataFrame with
the table's rows, registered in ``jobs/run_all.py``'s ``TABLES``."""
