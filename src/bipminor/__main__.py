"""``python -m bipminor``: the command-line interface, as the installed
``bipminor`` script runs it."""

from .cli.main import main

if __name__ == "__main__":
    main()
