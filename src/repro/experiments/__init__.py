"""One module per evaluation table (DESIGN §5): each exposes ``run(...)``
returning a pandas DataFrame with the table's rows, used by the
``jobs/`` entrypoints."""
