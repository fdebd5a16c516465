from hypothesis import settings

# Property tests must neither time out on a slow or loaded machine nor
# draw different inputs from one run to the next.
settings.register_profile("courttrack", deadline=None, derandomize=True)
settings.load_profile("courttrack")
