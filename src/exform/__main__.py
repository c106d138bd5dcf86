"""``python -m exform``: the ``exform`` command without the installed script."""

from .cli import main

if __name__ == "__main__":
    main()
